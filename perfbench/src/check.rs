//! Output checks: a stream decrypts back to its input row for row, and FD
//! discovery on the ciphertext loses no plaintext FD.
//!
//! FDs found on the ciphertext that do not hold on the plaintext (false
//! positives) are counted, not gated: chunked F² produces some (see
//! `NOTES.md`), and the benchmark reports the count as `fd_false_pos`.

use f2_fd::{Fd, FdSet, Tane};
use f2_relation::Table;

/// Compares decrypted chunks, in stream order, against the input rows.
#[derive(Debug)]
pub struct RowCursor<'a> {
    expected: &'a Table,
    next: usize,
    mismatch: Option<String>,
}

impl<'a> RowCursor<'a> {
    /// A cursor at the first input row.
    pub fn new(expected: &'a Table) -> Self {
        RowCursor { expected, next: 0, mismatch: None }
    }

    /// Check the next decrypted chunk.
    pub fn accept(&mut self, chunk: &Table) {
        if self.mismatch.is_some() {
            return;
        }
        if chunk.schema() != self.expected.schema() {
            self.mismatch = Some("decrypted schema differs from the input's".into());
            return;
        }
        let end = self.next + chunk.row_count();
        match self.expected.rows().get(self.next..end) {
            Some(rows) if rows == chunk.rows() => self.next = end,
            _ => {
                self.mismatch =
                    Some(format!("decrypted rows {}..{end} differ from the input's", self.next))
            }
        }
    }

    /// `Ok` when every input row came back, in order, and nothing else did.
    pub fn finish(self) -> Result<(), String> {
        if let Some(mismatch) = self.mismatch {
            return Err(mismatch);
        }
        if self.next != self.expected.row_count() {
            return Err(format!(
                "decrypted {} rows, the input has {}",
                self.next,
                self.expected.row_count()
            ));
        }
        Ok(())
    }
}

/// The plaintext's FDs, to judge the FD set the provider finds on the ciphertext.
#[derive(Debug)]
pub struct FdGate {
    plain: Table,
    required: Vec<Fd>,
}

impl FdGate {
    /// Discover the plaintext FDs of `plain` (the reference; not timed).
    pub fn new(plain: &Table) -> Self {
        let required =
            Tane::new().discover(plain).iter().filter(|fd| !fd.lhs.is_empty()).copied().collect();
        FdGate { plain: plain.clone(), required }
    }

    /// Judge `found`: an error names a plaintext FD it does not imply; otherwise
    /// the number of its non-empty-LHS FDs that do not hold on the plaintext.
    pub fn judge(&self, found: &FdSet) -> Result<usize, String> {
        if let Some(lost) = self.required.iter().find(|fd| !found.implies(fd)) {
            return Err(format!(
                "plaintext FD {} is missing on the ciphertext",
                lost.display(self.plain.schema())
            ));
        }
        Ok(found.iter().filter(|fd| !fd.lhs.is_empty() && !fd.holds_in(&self.plain)).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2_relation::table;

    #[test]
    fn row_cursor_wants_every_row_in_order() {
        let t = table! { ["A", "B"]; ["1", "x"], ["2", "y"], ["3", "z"] };
        let mut cursor = RowCursor::new(&t);
        cursor.accept(&t.truncated(2));
        assert!(RowCursor::new(&t).finish().is_err());
        let mut swapped = RowCursor::new(&t);
        swapped.accept(&table! { ["A", "B"]; ["2", "y"] });
        assert!(swapped.finish().is_err());
        cursor.accept(&table! { ["A", "B"]; ["3", "z"] });
        assert!(cursor.finish().is_ok());
    }

    #[test]
    fn fd_gate_counts_false_positives_and_rejects_losses() {
        let plain = table! { ["A", "B", "C"]; ["1", "x", "p"], ["1", "x", "q"], ["2", "y", "p"] };
        let gate = FdGate::new(&plain);
        let truth = Tane::new().discover(&plain);
        assert_eq!(gate.judge(&truth), Ok(0));
        assert!(gate.judge(&FdSet::new()).is_err());
        let mut spurious = truth.clone();
        let c = plain.schema().index_of("C").unwrap();
        let a = plain.schema().index_of("A").unwrap();
        spurious.insert(Fd::new(f2_relation::AttrSet::single(a), c));
        assert_eq!(gate.judge(&spurious), Ok(1));
    }
}

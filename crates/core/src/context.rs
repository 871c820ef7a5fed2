//! [`ValueContext`] implementation backed by a dataset's value pool,
//! giving clique factors access to ordering and similarity over interned
//! symbols.

use holo_constraints::similarity::normalized_similarity;
use holo_dataset::{Dataset, Sym};
use holo_factor::ValueContext;

/// Orders symbols by [`holo_dataset::ValuePool::compare`] (numerically
/// when both are finite numbers, lexicographically otherwise); similarity
/// is normalised Levenshtein.
pub struct DatasetContext<'a> {
    ds: &'a Dataset,
}

impl<'a> DatasetContext<'a> {
    /// Wraps a dataset.
    pub fn new(ds: &'a Dataset) -> Self {
        DatasetContext { ds }
    }
}

impl ValueContext for DatasetContext<'_> {
    fn compare(&self, a: Sym, b: Sym) -> std::cmp::Ordering {
        self.ds.pool().compare(a, b)
    }

    fn similar(&self, a: Sym, b: Sym, threshold: f64) -> bool {
        let pool = self.ds.pool();
        normalized_similarity(pool.resolve(a), pool.resolve(b)) >= threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_dataset::Schema;

    #[test]
    fn numeric_then_lexicographic() {
        let mut ds = Dataset::new(Schema::new(vec!["x"]));
        let nine = ds.intern("9");
        let ten = ds.intern("10");
        let abc = ds.intern("abc");
        let ctx = DatasetContext::new(&ds);
        assert!(ctx.compare(nine, ten).is_lt());
        assert!(
            ctx.compare(ten, abc).is_lt(),
            "mixed falls back to lexicographic"
        );
    }

    #[test]
    fn similarity_thresholds() {
        let mut ds = Dataset::new(Schema::new(vec!["x"]));
        let a = ds.intern("Chicago");
        let b = ds.intern("Cicago");
        let ctx = DatasetContext::new(&ds);
        assert!(ctx.similar(a, b, 0.8));
        assert!(!ctx.similar(a, b, 0.99));
    }
}

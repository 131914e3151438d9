//! Collection strategies (`proptest::collection::vec`).

use std::ops::{Range, RangeInclusive};

use crate::{Strategy, TestRng};

/// An inclusive length range for generated collections.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { min: n, max: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        assert!(r.start() <= r.end(), "empty collection size range");
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

/// Strategy for `Vec`s whose length falls in a size range and whose
/// elements come from one element strategy.
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.gen_range(self.size.min..=self.size.max);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// `Vec` strategy: length drawn from `size`, elements from `element`.
///
/// `element` may itself be a `Vec` of strategies (fixed-shape rows), a
/// tuple of strategies, or any other [`Strategy`].
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

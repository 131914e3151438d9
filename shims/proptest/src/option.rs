//! Option strategies (`proptest::option::of`).

use crate::{Strategy, TestRng};

/// Strategy for `Option<T>`; mostly `Some`, with enough `None`s to
/// exercise null paths.
pub struct OptionStrategy<S> {
    inner: S,
}

impl<S: Strategy> Strategy for OptionStrategy<S> {
    type Value = Option<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
        if rng.gen_bool(0.75) {
            Some(self.inner.generate(rng))
        } else {
            None
        }
    }
}

/// `Option` strategy over `inner`.
pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
    OptionStrategy { inner }
}

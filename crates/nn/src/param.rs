//! Trainable parameters and their gradients.

use dmt_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A trainable tensor together with its accumulated gradient and (lazily allocated)
/// Adam moment estimates.
///
/// Keeping the optimizer state inside the parameter avoids a global parameter registry:
/// layers hand out `&mut Parameter` references via [`crate::optim::Optimizer::step`]'s
/// visitor, and each optimizer reads or initializes exactly the state it needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Parameter {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    /// First-moment estimate used by Adam; allocated on first use.
    pub adam_m: Option<Tensor>,
    /// Second-moment estimate used by Adam; allocated on first use.
    pub adam_v: Option<Tensor>,
}

impl Parameter {
    /// Wraps a tensor as a trainable parameter with a zeroed gradient.
    #[must_use]
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self {
            value,
            grad,
            adam_m: None,
            adam_v: None,
        }
    }

    /// Number of scalar elements in the parameter.
    #[must_use]
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Resets the accumulated gradient to zero, in place.
    pub fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
    }

    /// Adds `grad` into the accumulated gradient.
    ///
    /// # Panics
    ///
    /// Panics if `grad` has a different shape than the parameter.
    pub fn accumulate_grad(&mut self, grad: &Tensor) {
        self.grad
            .axpy(1.0, grad)
            .expect("gradient shape must match the parameter shape");
    }
}

/// Visits every [`Parameter`] of a layer (or stack of layers).
///
/// Layers implement this so that optimizers and parameter-counting utilities can walk
/// arbitrary compositions without knowing their concrete structure.
pub trait HasParameters {
    /// Calls `visitor` once for every parameter owned by `self`.
    fn visit_parameters(&mut self, visitor: &mut dyn FnMut(&mut Parameter));

    /// Total number of trainable scalars.
    fn parameter_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_parameters(&mut |p| count += p.len());
        count
    }

    /// Zeroes every parameter's gradient.
    fn zero_grad(&mut self) {
        self.visit_parameters(&mut Parameter::zero_grad);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TwoParams {
        a: Parameter,
        b: Parameter,
    }

    impl HasParameters for TwoParams {
        fn visit_parameters(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
            visitor(&mut self.a);
            visitor(&mut self.b);
        }
    }

    #[test]
    fn accumulate_and_zero_grad() {
        let mut p = Parameter::new(Tensor::zeros(&[2, 2]));
        p.accumulate_grad(&Tensor::ones(&[2, 2]));
        p.accumulate_grad(&Tensor::ones(&[2, 2]));
        assert_eq!(p.grad.data(), &[2.0; 4]);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn mismatched_grad_panics() {
        let mut p = Parameter::new(Tensor::zeros(&[2, 2]));
        p.accumulate_grad(&Tensor::ones(&[3]));
    }

    #[test]
    fn visitor_counts_parameters() {
        let mut layers = TwoParams {
            a: Parameter::new(Tensor::zeros(&[2, 3])),
            b: Parameter::new(Tensor::zeros(&[4])),
        };
        assert_eq!(layers.parameter_count(), 10);
        layers.a.accumulate_grad(&Tensor::ones(&[2, 3]));
        layers.zero_grad();
        assert_eq!(layers.a.grad.sum(), 0.0);
    }
}

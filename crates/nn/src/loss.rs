//! Binary cross-entropy with logits.

use crate::activation::scalar_sigmoid;
use dmt_tensor::{Tensor, TensorError};
use serde::{Deserialize, Serialize};

/// Binary cross-entropy computed directly from logits (numerically stable), with the
/// gradient `(sigmoid(z) - y) / batch` expected by the training loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BceWithLogitsLoss;

impl BceWithLogitsLoss {
    /// Creates the loss.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Computes the mean loss of a `[batch, 1]` (or `[batch]`) logit tensor
    /// against a slice of 0/1 labels and writes `grad_logits`, shaped like
    /// `logits`. No allocation once `grad_logits` has grown to the batch.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if the number of logits does not match the number of
    /// labels.
    pub fn forward_backward_into(
        &self,
        logits: &Tensor,
        labels: &[f32],
        grad_logits: &mut Tensor,
    ) -> Result<f64, TensorError> {
        if logits.len() != labels.len() {
            return Err(TensorError::ShapeMismatch {
                op: "bce_with_logits",
                lhs: logits.shape().to_vec(),
                rhs: vec![labels.len()],
            });
        }
        let batch = labels.len().max(1);
        grad_logits.reset_to_shape(logits.shape());
        let mut loss = 0.0f64;
        for ((g, &z), &y) in grad_logits
            .data_mut()
            .iter_mut()
            .zip(logits.data())
            .zip(labels)
        {
            *g = (scalar_sigmoid(z) - y) / batch as f32;
            // Stable BCE-with-logits: max(z,0) - z*y + ln(1 + e^{-|z|}).
            let z64 = f64::from(z);
            let y64 = f64::from(y);
            loss += z64.max(0.0) - z64 * y64 + (1.0 + (-z64.abs()).exp()).ln();
        }
        Ok(loss / batch as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loss_and_grad(logits: &[f32], labels: &[f32]) -> (f64, Tensor) {
        let logits = Tensor::from_vec(vec![logits.len(), 1], logits.to_vec()).unwrap();
        let mut grad = Tensor::default();
        let loss = BceWithLogitsLoss::new()
            .forward_backward_into(&logits, labels, &mut grad)
            .unwrap();
        (loss, grad)
    }

    #[test]
    fn confident_correct_predictions_have_low_loss() {
        let (l, grad) = loss_and_grad(&[6.0, -6.0], &[1.0, 0.0]);
        assert!(l < 0.01);
        assert!(scalar_sigmoid(6.0) > 0.99 && scalar_sigmoid(-6.0) < 0.01);
        assert!(grad.data().iter().all(|g| g.abs() < 0.01));
    }

    #[test]
    fn confident_wrong_predictions_have_high_loss() {
        let (l, grad) = loss_and_grad(&[-6.0, 6.0], &[1.0, 0.0]);
        assert!(l > 3.0);
        assert!(grad.data()[0] < 0.0 && grad.data()[1] > 0.0);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let z = 0.37f32;
        let labels = [1.0f32];
        let (_, grad) = loss_and_grad(&[z], &labels);
        let eps = 1e-3f32;
        let (lp, _) = loss_and_grad(&[z + eps], &labels);
        let (lm, _) = loss_and_grad(&[z - eps], &labels);
        let numeric = (lp - lm) / (2.0 * f64::from(eps));
        assert!((numeric - f64::from(grad.data()[0])).abs() < 1e-3);
    }

    #[test]
    fn loss_is_stable_for_extreme_logits() {
        let (l, grad) = loss_and_grad(&[1000.0, -1000.0], &[0.0, 1.0]);
        assert!(l.is_finite());
        assert!(grad.data().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn mismatched_lengths_error() {
        assert!(BceWithLogitsLoss::new()
            .forward_backward_into(&Tensor::ones(&[2, 1]), &[1.0], &mut Tensor::default())
            .is_err());
    }
}

//! Multi-layer perceptron with ReLU activations.

use crate::linear::{Linear, LinearScratch};
use crate::param::{HasParameters, Parameter};
use dmt_tensor::{Tensor, TensorError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// What an [`Mlp::forward_into`] leaves behind for the matching
/// [`Mlp::backward_into`] — every hidden layer's post-ReLU output — plus the
/// backward pass's gradient buffers and the shared kernel scratch. Capacity
/// is retained between batches, so steady state allocates nothing.
#[derive(Debug, Default)]
pub struct MlpScratch {
    hidden: Vec<Tensor>,
    grads: [Tensor; 2],
    linear: LinearScratch,
}

/// A stack of [`Linear`] layers with ReLU between them.
///
/// The final layer is linear (no activation) so the MLP can be used both as a hidden
/// tower (followed by further interaction) and as a logit head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Creates an MLP with the given layer widths, e.g. `[13, 512, 256, 128]` builds
    /// three linear layers 13→512→256→128.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(rng: &mut R, sizes: &[usize]) -> Self {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least an input and an output width"
        );
        let layers = sizes
            .windows(2)
            .map(|pair| Linear::new(rng, pair[0], pair[1]))
            .collect();
        Self { layers }
    }

    /// Input width.
    #[must_use]
    pub fn in_features(&self) -> usize {
        self.layers[0].in_features()
    }

    /// Output width.
    #[must_use]
    pub fn out_features(&self) -> usize {
        self.layers[self.layers.len() - 1].out_features()
    }

    /// Number of linear layers.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Forward FLOPs per sample.
    #[must_use]
    pub fn flops_per_sample(&self) -> u64 {
        self.layers.iter().map(Linear::flops_per_sample).sum()
    }

    /// Switches every layer's forward pass to the given storage precision.
    ///
    /// [`dmt_tensor::Precision::F32`] drops the quantized sidecars and restores
    /// the exact fused kernel. The f32 master weights are retained either way,
    /// so training (backward + optimizer steps) is unaffected.
    pub fn quantize_weights(&mut self, precision: dmt_tensor::Precision) {
        for layer in &mut self.layers {
            layer.quantize_weights(precision);
        }
    }

    /// Forward pass with ReLU after every layer except the last, into a
    /// caller-owned output. The ReLU is fused into each hidden layer's GEMM
    /// writeback, and each hidden output stays in `scratch` as the record
    /// [`Mlp::backward_into`] reads. No allocation once `scratch` and `out`
    /// have grown to the batch's working-set size.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if the input width does not match.
    pub fn forward_into(
        &self,
        input: &Tensor,
        out: &mut Tensor,
        scratch: &mut MlpScratch,
    ) -> Result<(), TensorError> {
        let last = self.layers.len() - 1;
        scratch.hidden.resize_with(last, Tensor::default);
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = scratch.hidden.split_at_mut(i);
            let src = done.last().unwrap_or(input);
            let dst = rest.first_mut().unwrap_or(&mut *out);
            layer.forward_into(src, i < last, dst, &mut scratch.linear)?;
        }
        Ok(())
    }

    /// Backward pass over the record of the last [`Mlp::forward_into`] of
    /// `input` into `scratch`: accumulates every layer's parameter gradients
    /// and writes the gradient with respect to `input` into `grad_input`.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] on shape mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` holds no record of a forward over this MLP.
    pub fn backward_into(
        &mut self,
        input: &Tensor,
        scratch: &mut MlpScratch,
        grad_output: &Tensor,
        grad_input: &mut Tensor,
    ) -> Result<(), TensorError> {
        let last = self.layers.len() - 1;
        assert_eq!(
            scratch.hidden.len(),
            last,
            "Mlp::backward_into called before forward"
        );
        let MlpScratch {
            hidden,
            grads: [a, b],
            linear,
        } = scratch;
        // `grad` holds the gradient flowing into layer `i`'s output; `next`
        // receives layer `i`'s input gradient.
        let (mut grad, mut next): (&mut Tensor, &mut Tensor) = (a, b);
        for i in (0..=last).rev() {
            let dy: &Tensor = if i == last {
                grad_output
            } else {
                // ReLU backward from the saved post-activation.
                for (g, &y) in grad.data_mut().iter_mut().zip(hidden[i].data()) {
                    *g = if y > 0.0 { *g } else { 0.0 };
                }
                grad
            };
            let x = if i == 0 { input } else { &hidden[i - 1] };
            let dx = if i == 0 { &mut *grad_input } else { &mut *next };
            self.layers[i].backward_into(x, dy, dx, linear)?;
            std::mem::swap(&mut grad, &mut next);
        }
        Ok(())
    }
}

impl HasParameters for Mlp {
    fn visit_parameters(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        for layer in &mut self.layers {
            layer.visit_parameters(visitor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(sizes: &[usize]) -> Mlp {
        Mlp::new(&mut StdRng::seed_from_u64(3), sizes)
    }

    fn forward(m: &Mlp, x: &Tensor, scratch: &mut MlpScratch) -> Tensor {
        let mut y = Tensor::default();
        m.forward_into(x, &mut y, scratch).unwrap();
        y
    }

    fn backward(m: &mut Mlp, x: &Tensor, scratch: &mut MlpScratch, grad: &Tensor) -> Tensor {
        let mut dx = Tensor::default();
        m.backward_into(x, scratch, grad, &mut dx).unwrap();
        dx
    }

    #[test]
    fn forward_shapes() {
        let m = mlp(&[8, 16, 4]);
        assert_eq!(m.depth(), 2);
        assert_eq!(m.in_features(), 8);
        assert_eq!(m.out_features(), 4);
        let y = forward(&m, &Tensor::ones(&[5, 8]), &mut MlpScratch::default());
        assert_eq!(y.shape(), &[5, 4]);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn single_size_panics() {
        let _ = mlp(&[8]);
    }

    #[test]
    fn gradient_check() {
        let sizes = [3usize, 5, 1];
        let x = Tensor::from_vec(vec![2, 3], vec![0.1, -0.2, 0.3, 0.5, -0.1, 0.2]).unwrap();

        let mut m = mlp(&sizes);
        let mut scratch = MlpScratch::default();
        let y = forward(&m, &x, &mut scratch);
        let dx = backward(&mut m, &x, &mut scratch, &Tensor::ones(y.shape()));

        let eps = 1e-3f32;
        let sum_at = |x: &Tensor| forward(&mlp(&sizes), x, &mut MlpScratch::default()).sum();
        for &(r, c) in &[(0usize, 0usize), (1, 2)] {
            let mut x_plus = x.clone();
            x_plus.set(r, c, x.at(r, c) + eps);
            let mut x_minus = x.clone();
            x_minus.set(r, c, x.at(r, c) - eps);
            let numeric = (sum_at(&x_plus) - sum_at(&x_minus)) / (2.0 * eps);
            assert!(
                (numeric - dx.at(r, c)).abs() < 2e-2,
                "dx[{r},{c}] analytic {} vs numeric {numeric}",
                dx.at(r, c)
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_a_toy_problem() {
        use crate::optim::{Optimizer, SgdOptimizer};
        // Learn y = x0 + x1 with a tiny MLP and squared loss.
        let mut m = mlp(&[2, 8, 1]);
        let mut sgd = SgdOptimizer::new(0.05);
        let mut scratch = MlpScratch::default();
        let x = Tensor::from_vec(vec![4, 2], vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]).unwrap();
        let target = [0.0f32, 1.0, 1.0, 2.0];
        let loss_of = |y: &Tensor| -> f32 {
            y.data()
                .iter()
                .zip(&target)
                .map(|(p, t)| (p - t).powi(2))
                .sum::<f32>()
                / 4.0
        };
        let initial = loss_of(&forward(&m, &x, &mut scratch));
        for _ in 0..200 {
            m.zero_grad();
            let y = forward(&m, &x, &mut scratch);
            let grad: Vec<f32> = y
                .data()
                .iter()
                .zip(&target)
                .map(|(p, t)| 2.0 * (p - t) / 4.0)
                .collect();
            backward(
                &mut m,
                &x,
                &mut scratch,
                &Tensor::from_vec(vec![4, 1], grad).unwrap(),
            );
            sgd.step(&mut m);
        }
        let trained = loss_of(&forward(&m, &x, &mut scratch));
        assert!(trained < initial * 0.2, "loss {initial} -> {trained}");
    }

    /// The fused-ReLU forward equals the layer-by-layer composition with a
    /// separate [`crate::activation::relu`] pass, bit for bit, also when the
    /// scratch was grown by a different batch first.
    #[test]
    fn forward_infer_into_is_bit_identical_to_forward() {
        let m = mlp(&[6, 9, 7, 3]);
        let mut rng = StdRng::seed_from_u64(11);
        let data: Vec<f32> = (0..5 * 6).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let x = Tensor::from_vec(vec![5, 6], data).unwrap();
        let mut y = x.clone();
        for (i, layer) in m.layers.iter().enumerate() {
            let mut pre = Tensor::default();
            layer
                .forward_into(&y, false, &mut pre, &mut LinearScratch::default())
                .unwrap();
            y = if i + 1 < m.depth() {
                crate::activation::relu(&pre)
            } else {
                pre
            };
        }

        let mut scratch = MlpScratch::default();
        forward(&m, &Tensor::ones(&[9, 6]), &mut scratch);
        for _ in 0..2 {
            let out = forward(&m, &x, &mut scratch);
            assert_eq!(out.shape(), y.shape());
            for (a, b) in out.data().iter().zip(y.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn flops_and_parameters() {
        let mut m = mlp(&[10, 20, 5]);
        assert_eq!(m.flops_per_sample(), 2 * (10 * 20 + 20 * 5) as u64);
        assert_eq!(m.parameter_count(), 10 * 20 + 20 + 20 * 5 + 5);
    }
}

//! DCN-v2 CrossNet: explicit bounded-degree feature crossing.
//!
//! The cross layer computes `x_{l+1} = x_0 ⊙ (W_l x_l + b_l) + x_l`, which is the main
//! interaction module of DCN (Wang et al., 2021) and also the architecture the paper
//! lifts into the DCN tower module (Listing 2).

use crate::linear::{Linear, LinearScratch};
use crate::param::{HasParameters, Parameter};
use dmt_tensor::{Tensor, TensorError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// What a [`CrossNet::forward_into`] leaves behind for the matching
/// [`CrossNet::backward_into`] — every layer's projection `u_l` and every
/// intermediate `x_l` — plus the backward pass's gradient buffers and the
/// shared kernel scratch. Capacity is retained between batches, so steady
/// state allocates nothing.
#[derive(Debug, Default)]
pub struct CrossNetScratch {
    proj: Vec<Tensor>,
    xs: Vec<Tensor>,
    grad: Tensor,
    grad_u: Tensor,
    grad_via_w: Tensor,
    linear: LinearScratch,
}

/// A stack of DCN-v2 cross layers over a `width`-dimensional input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossNet {
    layers: Vec<Linear>,
    width: usize,
}

impl CrossNet {
    /// Creates a CrossNet of `num_layers` cross layers over `width` features.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers` is zero.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(rng: &mut R, width: usize, num_layers: usize) -> Self {
        assert!(num_layers > 0, "CrossNet needs at least one cross layer");
        let layers = (0..num_layers)
            .map(|_| Linear::new(rng, width, width))
            .collect();
        Self { layers, width }
    }

    /// Input/output width of the cross stack.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of cross layers.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Forward FLOPs per sample: each layer is a `width x width` GEMV plus the
    /// elementwise Hadamard and residual.
    #[must_use]
    pub fn flops_per_sample(&self) -> u64 {
        let w = self.width as u64;
        self.layers.len() as u64 * (2 * w * w + 2 * w)
    }

    /// Forward pass into a caller-owned output: per layer, the projection
    /// `u_l` ([`Linear::forward_into`]) and the fused `x0 ⊙ u_l + x_l`
    /// ([`Tensor::mul_add_into`]). Every `u_l` and intermediate `x_l` stays in
    /// `scratch` as the record [`CrossNet::backward_into`] reads. No allocation
    /// once `scratch` and `out` have grown to the batch's working-set size.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if the input is not `[batch, width]`.
    pub fn forward_into(
        &self,
        x0: &Tensor,
        out: &mut Tensor,
        scratch: &mut CrossNetScratch,
    ) -> Result<(), TensorError> {
        let last = self.layers.len() - 1;
        scratch.proj.resize_with(last + 1, Tensor::default);
        scratch.xs.resize_with(last, Tensor::default);
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = scratch.xs.split_at_mut(i);
            let x = done.last().unwrap_or(x0);
            let u = &mut scratch.proj[i];
            layer.forward_into(x, false, u, &mut scratch.linear)?;
            x0.mul_add_into(u, x, rest.first_mut().unwrap_or(&mut *out))?;
        }
        Ok(())
    }

    /// Backward pass over the record of the last [`CrossNet::forward_into`]
    /// of `x0` into `scratch`: accumulates every layer's parameter gradients
    /// and writes the gradient with respect to `x0` into `grad_x0`.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `grad_output` is not shaped like `x0`.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` holds no record of a forward over this CrossNet.
    pub fn backward_into(
        &mut self,
        x0: &Tensor,
        scratch: &mut CrossNetScratch,
        grad_output: &Tensor,
        grad_x0: &mut Tensor,
    ) -> Result<(), TensorError> {
        assert_eq!(
            scratch.proj.len(),
            self.layers.len(),
            "CrossNet::backward_into called before forward"
        );
        let s = scratch;
        grad_x0.reset_to_shape(x0.shape());
        s.grad.clone_from(grad_output);
        for l in (0..self.layers.len()).rev() {
            // x_{l+1} = x0 ⊙ u_l + x_l
            let dx0 = grad_x0.data_mut().iter_mut().zip(s.grad.data());
            for ((gx, &g), &u) in dx0.zip(s.proj[l].data()) {
                *gx += g * u;
            }
            s.grad_u.clone_from(&s.grad);
            for (gu, &x) in s.grad_u.data_mut().iter_mut().zip(x0.data()) {
                *gu *= x;
            }
            let x_l = if l == 0 { x0 } else { &s.xs[l - 1] };
            self.layers[l].backward_into(x_l, &s.grad_u, &mut s.grad_via_w, &mut s.linear)?;
            s.grad.axpy(1.0, &s.grad_via_w)?;
        }
        // The remaining gradient flows into x_0 through the x_l chain.
        grad_x0.axpy(1.0, &s.grad)
    }
}

impl HasParameters for CrossNet {
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

    fn crossnet(width: usize, depth: usize) -> CrossNet {
        CrossNet::new(&mut StdRng::seed_from_u64(11), width, depth)
    }

    fn forward(c: &CrossNet, x: &Tensor, scratch: &mut CrossNetScratch) -> Tensor {
        let mut y = Tensor::default();
        c.forward_into(x, &mut y, scratch).unwrap();
        y
    }

    fn backward(c: &mut CrossNet, x: &Tensor, scratch: &mut CrossNetScratch, g: &Tensor) -> Tensor {
        let mut dx = Tensor::default();
        c.backward_into(x, scratch, g, &mut dx).unwrap();
        dx
    }

    #[test]
    fn forward_preserves_width() {
        let c = crossnet(6, 3);
        let y = forward(&c, &Tensor::ones(&[4, 6]), &mut CrossNetScratch::default());
        assert_eq!(y.shape(), &[4, 6]);
        assert_eq!(c.depth(), 3);
        assert_eq!(c.width(), 6);
    }

    #[test]
    fn gradient_check() {
        let x = Tensor::from_vec(vec![2, 3], vec![0.2, -0.1, 0.3, -0.3, 0.4, 0.1]).unwrap();
        let mut c = crossnet(3, 2);
        let mut scratch = CrossNetScratch::default();
        let y = forward(&c, &x, &mut scratch);
        let dx = backward(&mut c, &x, &mut scratch, &Tensor::ones(y.shape()));

        let eps = 1e-3f32;
        let sum_at =
            |x: &Tensor| forward(&crossnet(3, 2), x, &mut CrossNetScratch::default()).sum();
        for &(r, col) in &[(0usize, 0usize), (1, 1), (0, 2)] {
            let mut x_plus = x.clone();
            x_plus.set(r, col, x.at(r, col) + eps);
            let mut x_minus = x.clone();
            x_minus.set(r, col, x.at(r, col) - eps);
            let numeric = (sum_at(&x_plus) - sum_at(&x_minus)) / (2.0 * eps);
            assert!(
                (numeric - dx.at(r, col)).abs() < 2e-2,
                "dx[{r},{col}] analytic {} vs numeric {numeric}",
                dx.at(r, col)
            );
        }
    }

    #[test]
    fn weight_gradients_are_nonzero_after_backward() {
        let mut c = crossnet(4, 2);
        let x = Tensor::ones(&[2, 4]);
        let mut scratch = CrossNetScratch::default();
        let y = forward(&c, &x, &mut scratch);
        backward(&mut c, &x, &mut scratch, &Tensor::ones(y.shape()));
        let mut grad_norm = 0.0;
        c.visit_parameters(&mut |p| grad_norm += p.grad.norm());
        assert!(grad_norm > 0.0);
    }

    /// The scratch-recording forward equals the plain layer-by-layer
    /// composition `x0 ⊙ (x_l W + b) + x_l`, bit for bit, also when the
    /// scratch was grown by a different batch first.
    #[test]
    fn forward_infer_into_is_bit_identical_to_forward() {
        let c = crossnet(5, 3);
        let x = Tensor::from_vec(
            vec![4, 5],
            (0..20)
                .map(|i| ((i * 3) % 11) as f32 * 0.17 - 0.8)
                .collect(),
        )
        .unwrap();
        let mut y = x.clone();
        for layer in &c.layers {
            let mut u = Tensor::default();
            layer
                .forward_into(&y, false, &mut u, &mut LinearScratch::default())
                .unwrap();
            y = x.mul_add(&u, &y).unwrap();
        }
        let mut scratch = CrossNetScratch::default();
        forward(&c, &Tensor::ones(&[7, 5]), &mut scratch);
        for _ in 0..2 {
            let out = forward(&c, &x, &mut scratch);
            assert_eq!(out.shape(), y.shape());
            for (a, b) in out.data().iter().zip(y.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn flops_scale_with_depth_and_width() {
        let shallow = crossnet(8, 1);
        let deep = crossnet(8, 4);
        assert_eq!(deep.flops_per_sample(), 4 * shallow.flops_per_sample());
    }

    #[test]
    fn parameter_count() {
        let mut c = crossnet(5, 3);
        assert_eq!(c.parameter_count(), 3 * (5 * 5 + 5));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_layers_panics() {
        let _ = crossnet(4, 0);
    }
}

//! Optimizers for dense parameters.

use crate::param::{HasParameters, Parameter};
use dmt_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A dense-parameter optimizer that updates every parameter reachable through a
/// [`HasParameters`] visitor.
pub trait Optimizer {
    /// Applies one update step using the gradients currently stored in each parameter.
    fn step(&mut self, model: &mut dyn HasParameters);
}

/// Plain stochastic gradient descent: `w -= lr * g`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdOptimizer {
    /// Learning rate.
    pub learning_rate: f32,
}

impl SgdOptimizer {
    /// Creates an SGD optimizer with the given learning rate.
    #[must_use]
    pub fn new(learning_rate: f32) -> Self {
        Self { learning_rate }
    }
}

impl Optimizer for SgdOptimizer {
    fn step(&mut self, model: &mut dyn HasParameters) {
        let lr = self.learning_rate;
        model.visit_parameters(&mut |p: &mut Parameter| {
            let grad = p.grad.clone();
            p.value
                .axpy(-lr, &grad)
                .expect("gradient matches parameter shape");
        });
    }
}

/// Adam (Kingma & Ba) with bias correction — the optimizer the paper's strong baseline
/// and all quality experiments use for the dense parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamOptimizer {
    /// Learning rate.
    pub learning_rate: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
    step_count: u64,
}

impl AdamOptimizer {
    /// Creates Adam with the standard `beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`.
    #[must_use]
    pub fn new(learning_rate: f32) -> Self {
        Self {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step_count: 0,
        }
    }

    /// Number of steps taken so far.
    #[must_use]
    pub fn steps_taken(&self) -> u64 {
        self.step_count
    }
}

impl Optimizer for AdamOptimizer {
    fn step(&mut self, model: &mut dyn HasParameters) {
        self.step_count += 1;
        let t = self.step_count as f32;
        let (lr, b1, b2, eps) = (self.learning_rate, self.beta1, self.beta2, self.eps);
        let bias1 = 1.0 - b1.powf(t);
        let bias2 = 1.0 - b2.powf(t);
        model.visit_parameters(&mut |p: &mut Parameter| {
            if p.adam_m.is_none() {
                p.adam_m = Some(Tensor::zeros(p.value.shape()));
                p.adam_v = Some(Tensor::zeros(p.value.shape()));
            }
            let m = p.adam_m.as_mut().expect("just initialized");
            let v = p.adam_v.as_mut().expect("just initialized");
            let grad = &p.grad;
            for ((m_i, v_i), (w_i, g_i)) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(p.value.data_mut().iter_mut().zip(grad.data()))
            {
                *m_i = b1 * *m_i + (1.0 - b1) * g_i;
                *v_i = b2 * *v_i + (1.0 - b2) * g_i * g_i;
                let m_hat = *m_i / bias1;
                let v_hat = *v_i / bias2;
                *w_i -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::{Linear, LinearScratch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quadratic_loss_step(layer: &mut Linear) -> f32 {
        // Minimize || y ||^2 for input of ones: drives weights and bias toward zero.
        layer.zero_grad();
        let (x, mut y, mut dx) = (Tensor::ones(&[4, 3]), Tensor::default(), Tensor::default());
        let mut scratch = LinearScratch::default();
        layer.forward_into(&x, false, &mut y, &mut scratch).unwrap();
        let loss: f32 = y.data().iter().map(|v| v * v).sum();
        let grad = y.scale(2.0);
        layer
            .backward_into(&x, &grad, &mut dx, &mut scratch)
            .unwrap();
        loss
    }

    #[test]
    fn sgd_descends_a_quadratic() {
        let mut layer = Linear::new(&mut StdRng::seed_from_u64(1), 3, 2);
        let mut opt = SgdOptimizer::new(0.01);
        let first = quadratic_loss_step(&mut layer);
        opt.step(&mut layer);
        for _ in 0..50 {
            quadratic_loss_step(&mut layer);
            opt.step(&mut layer);
        }
        let last = quadratic_loss_step(&mut layer);
        assert!(last < first * 0.1, "{first} -> {last}");
    }

    #[test]
    fn adam_descends_a_quadratic() {
        let mut layer = Linear::new(&mut StdRng::seed_from_u64(2), 3, 2);
        let mut opt = AdamOptimizer::new(0.05);
        let first = quadratic_loss_step(&mut layer);
        opt.step(&mut layer);
        for _ in 0..100 {
            quadratic_loss_step(&mut layer);
            opt.step(&mut layer);
        }
        let last = quadratic_loss_step(&mut layer);
        assert!(last < first * 0.05, "{first} -> {last}");
        assert_eq!(opt.steps_taken(), 101);
    }

    #[test]
    fn adam_allocates_moments_lazily() {
        let mut layer = Linear::new(&mut StdRng::seed_from_u64(3), 3, 2);
        let mut has_state = false;
        layer.visit_parameters(&mut |p| has_state |= p.adam_m.is_some());
        assert!(!has_state);
        quadratic_loss_step(&mut layer);
        AdamOptimizer::new(0.01).step(&mut layer);
        let mut all_state = true;
        layer.visit_parameters(&mut |p| all_state &= p.adam_m.is_some() && p.adam_v.is_some());
        assert!(all_state);
    }

    #[test]
    fn zero_gradient_means_no_movement_for_sgd() {
        let mut layer = Linear::new(&mut StdRng::seed_from_u64(4), 2, 2);
        let before = layer.weight().clone();
        SgdOptimizer::new(0.5).step(&mut layer);
        assert_eq!(layer.weight(), &before);
    }
}

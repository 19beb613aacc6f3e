use rand::rngs::StdRng;

use super::{he_std, standard_normal, Layer};
use crate::sgd::sgd_step;
use crate::{Tensor, TrainingHyper};

/// Fully connected layer `y = W·x + b`.
///
/// Expects its input flattened to `(n, in_features, 1, 1)` — insert a
/// [`Flatten`](super::Flatten) after the convolutional stack. Weight layout
/// is `[out_features][in_features]`, row-major.
#[derive(Debug, Clone)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    weights: Vec<f32>,
    bias: Vec<f32>,
    grad_weights: Vec<f32>,
    grad_bias: Vec<f32>,
    vel_weights: Vec<f32>,
    vel_bias: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-normal initial weights.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "dense dimensions must be positive"
        );
        let std = he_std(in_features);
        let len = in_features * out_features;
        let weights = (0..len)
            .map(|_| (standard_normal(rng) * std) as f32)
            .collect();
        Dense {
            in_features,
            out_features,
            weights,
            bias: vec![0.0; out_features],
            grad_weights: vec![0.0; len],
            grad_bias: vec![0.0; out_features],
            vel_weights: vec![0.0; len],
            vel_bias: vec![0.0; out_features],
            cached_input: None,
        }
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (n, c, h, w) = input.shape();
        assert_eq!(h * w, 1, "dense input must be flattened to (n, c, 1, 1)");
        assert_eq!(c, self.in_features, "dense input feature mismatch");
        let mut out = Tensor::zeros(n, self.out_features, 1, 1);
        for b in 0..n {
            let x = input.example(b);
            for o in 0..self.out_features {
                let row = &self.weights[o * self.in_features..(o + 1) * self.in_features];
                let mut acc = self.bias[o];
                for (wv, xv) in row.iter().zip(x) {
                    acc += wv * xv;
                }
                *out.at_mut(b, o, 0, 0) = acc;
            }
        }
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let Some(input) = self.cached_input.clone() else {
            panic!("backward called before forward");
        };
        let (n, _, _, _) = input.shape();
        let mut grad_input = Tensor::zeros(n, self.in_features, 1, 1);
        for b in 0..n {
            let x = input.example(b);
            let gi = grad_input.as_mut_slice();
            for o in 0..self.out_features {
                let go = grad_output.at(b, o, 0, 0);
                if go == 0.0 {
                    continue;
                }
                self.grad_bias[o] += go;
                let row_start = o * self.in_features;
                for i in 0..self.in_features {
                    self.grad_weights[row_start + i] += go * x[i];
                    gi[b * self.in_features + i] += go * self.weights[row_start + i];
                }
            }
        }
        grad_input
    }

    fn update(&mut self, hyper: &TrainingHyper) {
        sgd_step(
            &mut self.weights,
            &mut self.grad_weights,
            &mut self.vel_weights,
            hyper,
            true,
        );
        sgd_step(
            &mut self.bias,
            &mut self.grad_bias,
            &mut self.vel_bias,
            hyper,
            false,
        );
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn param_values(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        out.extend_from_slice(&self.weights);
        out.extend_from_slice(&self.bias);
        out
    }

    fn name(&self) -> &'static str {
        "dense"
    }
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::layers::check_input_gradient;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn known_linear_map() {
        let mut d = Dense::new(2, 2, &mut rng());
        d.weights = vec![1.0, 2.0, 3.0, 4.0]; // rows: [1 2], [3 4]
        d.bias = vec![0.5, -0.5];
        let input = Tensor::from_vec(1, 2, 1, 1, vec![1.0, 1.0]);
        let out = d.forward(&input);
        assert_eq!(out.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn batch_independence() {
        let mut d = Dense::new(3, 2, &mut rng());
        let single = Tensor::from_vec(1, 3, 1, 1, vec![0.1, 0.2, 0.3]);
        let expected = d.forward(&single);
        let batch = Tensor::from_vec(2, 3, 1, 1, vec![0.1, 0.2, 0.3, 0.1, 0.2, 0.3]);
        let out = d.forward(&batch);
        assert_eq!(out.example(0), expected.as_slice());
        assert_eq!(out.example(1), expected.as_slice());
    }

    #[test]
    fn gradient_check() {
        let mut d = Dense::new(5, 3, &mut rng());
        let input = Tensor::from_vec(
            2,
            5,
            1,
            1,
            (0..10).map(|i| (i as f32 * 0.41).sin()).collect(),
        );
        check_input_gradient(&mut d, &input, 1e-2);
    }

    #[test]
    fn weight_gradient_is_outer_product() {
        let mut d = Dense::new(2, 1, &mut rng());
        let input = Tensor::from_vec(1, 2, 1, 1, vec![3.0, 4.0]);
        d.forward(&input);
        d.backward(&Tensor::from_vec(1, 1, 1, 1, vec![2.0]));
        assert_eq!(d.grad_weights, vec![6.0, 8.0]);
        assert_eq!(d.grad_bias, vec![2.0]);
    }

    #[test]
    #[should_panic(expected = "flattened")]
    fn unflattened_input_panics() {
        let mut d = Dense::new(4, 2, &mut rng());
        d.forward(&Tensor::zeros(1, 1, 2, 2));
    }

    #[test]
    fn param_count_formula() {
        let d = Dense::new(10, 4, &mut rng());
        assert_eq!(d.param_count(), 44);
    }
}

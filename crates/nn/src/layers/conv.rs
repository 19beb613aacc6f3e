use rand::rngs::StdRng;

use super::gemm::{gemm_accumulate, gemm_transpose_a, gemm_transpose_b};
use super::{he_std, standard_normal, Layer};
use crate::sgd::sgd_step;
use crate::{Tensor, TrainingHyper};

/// 2-D convolution with stride 1 and "same" zero padding.
///
/// Weight layout is `[out_channels][in_channels][k][k]`, flattened
/// row-major. For even kernel sizes the padding is asymmetric
/// (`(k−1)/2` before, `k/2` after), so the spatial size is always
/// preserved — which is what the paper's AlexNet-variant space (kernel
/// sizes 2–5) needs to keep shape inference simple.
///
/// The layer lowers the convolution to matrix multiplications (im2col +
/// GEMM), the same trick Caffe (the paper's framework) uses; the tests
/// check it against a direct nested-loop convolution.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    weights: Vec<f32>,
    bias: Vec<f32>,
    grad_weights: Vec<f32>,
    grad_bias: Vec<f32>,
    vel_weights: Vec<f32>,
    vel_bias: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal initial weights.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(in_channels: usize, out_channels: usize, kernel: usize, rng: &mut StdRng) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0 && kernel > 0,
            "conv dimensions must be positive"
        );
        let fan_in = in_channels * kernel * kernel;
        let std = he_std(fan_in);
        let len = out_channels * fan_in;
        let weights = (0..len)
            .map(|_| (standard_normal(rng) * std) as f32)
            .collect();
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            weights,
            bias: vec![0.0; out_channels],
            grad_weights: vec![0.0; len],
            grad_bias: vec![0.0; out_channels],
            vel_weights: vec![0.0; len],
            vel_bias: vec![0.0; out_channels],
            cached_input: None,
        }
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    #[cfg(test)]
    fn weight(&self, oc: usize, ic: usize, ky: usize, kx: usize) -> f32 {
        self.weights[((oc * self.in_channels + ic) * self.kernel + ky) * self.kernel + kx]
    }

    #[inline]
    fn pad_before(&self) -> i64 {
        ((self.kernel - 1) / 2) as i64
    }

    /// Lowers one batch item to the im2col matrix: `K×N` row-major with
    /// `K = Cin·k²` patch rows and `N = H·W` output-pixel columns.
    /// Out-of-bounds (padding) taps are zero.
    fn im2col(&self, input: &Tensor, b: usize) -> Vec<f32> {
        let (_, c, h, w) = input.shape();
        let k = self.kernel;
        let pad = self.pad_before();
        let n_cols = h * w;
        let mut col = vec![0.0f32; c * k * k * n_cols];
        for ic in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((ic * k + ky) * k + kx) * n_cols;
                    for y in 0..h {
                        let sy = y as i64 + ky as i64 - pad;
                        if sy < 0 || sy >= h as i64 {
                            continue;
                        }
                        for x in 0..w {
                            let sx = x as i64 + kx as i64 - pad;
                            if sx < 0 || sx >= w as i64 {
                                continue;
                            }
                            col[row + y * w + x] = input.at(b, ic, sy as usize, sx as usize);
                        }
                    }
                }
            }
        }
        col
    }

    /// Scatter-adds a `K×N` column-space gradient back into image space
    /// (the adjoint of [`Conv2d::im2col`]).
    fn col2im_accumulate(&self, colgrad: &[f32], grad_input: &mut Tensor, b: usize) {
        let (_, c, h, w) = grad_input.shape();
        let k = self.kernel;
        let pad = self.pad_before();
        let n_cols = h * w;
        for ic in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((ic * k + ky) * k + kx) * n_cols;
                    for y in 0..h {
                        let sy = y as i64 + ky as i64 - pad;
                        if sy < 0 || sy >= h as i64 {
                            continue;
                        }
                        for x in 0..w {
                            let sx = x as i64 + kx as i64 - pad;
                            if sx < 0 || sx >= w as i64 {
                                continue;
                            }
                            *grad_input.at_mut(b, ic, sy as usize, sx as usize) +=
                                colgrad[row + y * w + x];
                        }
                    }
                }
            }
        }
    }

    /// Direct 7-nested-loop convolution: the reference the im2col forward
    /// pass is tested against.
    #[cfg(test)]
    fn forward_naive(&self, input: &Tensor) -> Tensor {
        let (n, c, h, w) = input.shape();
        let mut out = Tensor::zeros(n, self.out_channels, h, w);
        let pad = self.pad_before();
        for b in 0..n {
            for oc in 0..self.out_channels {
                let bias = self.bias[oc];
                for y in 0..h {
                    for x in 0..w {
                        let mut acc = bias;
                        for ic in 0..c {
                            for ky in 0..self.kernel {
                                let sy = y as i64 + ky as i64 - pad;
                                if sy < 0 || sy >= h as i64 {
                                    continue;
                                }
                                for kx in 0..self.kernel {
                                    let sx = x as i64 + kx as i64 - pad;
                                    if sx < 0 || sx >= w as i64 {
                                        continue;
                                    }
                                    acc += self.weight(oc, ic, ky, kx)
                                        * input.at(b, ic, sy as usize, sx as usize);
                                }
                            }
                        }
                        *out.at_mut(b, oc, y, x) = acc;
                    }
                }
            }
        }
        out
    }

    fn forward_im2col(&self, input: &Tensor) -> Tensor {
        let (n, _, h, w) = input.shape();
        let n_cols = h * w;
        let patch = self.in_channels * self.kernel * self.kernel;
        let mut out = Tensor::zeros(n, self.out_channels, h, w);
        for b in 0..n {
            let col = self.im2col(input, b);
            let start = b * self.out_channels * n_cols;
            let out_b = &mut out.as_mut_slice()[start..start + self.out_channels * n_cols];
            // Bias first, then accumulate W·col on top.
            for (oc, chunk) in out_b.chunks_exact_mut(n_cols).enumerate() {
                chunk.fill(self.bias[oc]);
            }
            gemm_accumulate(self.out_channels, patch, n_cols, &self.weights, &col, out_b);
        }
        out
    }

    /// Direct nested-loop backward pass: the reference the im2col backward
    /// pass is tested against.
    #[cfg(test)]
    fn backward_naive(&mut self, grad_output: &Tensor, input: &Tensor) -> Tensor {
        let (n, c, h, w) = input.shape();
        let pad = self.pad_before();
        let mut grad_input = Tensor::zeros(n, c, h, w);
        for b in 0..n {
            for oc in 0..self.out_channels {
                for y in 0..h {
                    for x in 0..w {
                        let go = grad_output.at(b, oc, y, x);
                        if go == 0.0 {
                            continue;
                        }
                        self.grad_bias[oc] += go;
                        for ic in 0..c {
                            for ky in 0..self.kernel {
                                let sy = y as i64 + ky as i64 - pad;
                                if sy < 0 || sy >= h as i64 {
                                    continue;
                                }
                                for kx in 0..self.kernel {
                                    let sx = x as i64 + kx as i64 - pad;
                                    if sx < 0 || sx >= w as i64 {
                                        continue;
                                    }
                                    let widx = ((oc * self.in_channels + ic) * self.kernel + ky)
                                        * self.kernel
                                        + kx;
                                    self.grad_weights[widx] +=
                                        go * input.at(b, ic, sy as usize, sx as usize);
                                    *grad_input.at_mut(b, ic, sy as usize, sx as usize) +=
                                        go * self.weights[widx];
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_input
    }

    fn backward_im2col(&mut self, grad_output: &Tensor, input: &Tensor) -> Tensor {
        let (n, c, h, w) = input.shape();
        let n_cols = h * w;
        let patch = self.in_channels * self.kernel * self.kernel;
        let mut grad_input = Tensor::zeros(n, c, h, w);
        let mut colgrad = vec![0.0f32; patch * n_cols];
        for b in 0..n {
            let start = b * self.out_channels * n_cols;
            let go_b = &grad_output.as_slice()[start..start + self.out_channels * n_cols];
            // Bias gradient: row sums of the output gradient.
            for (oc, chunk) in go_b.chunks_exact(n_cols).enumerate() {
                self.grad_bias[oc] += chunk.iter().sum::<f32>();
            }
            // Weight gradient: gradOut (OC×N) · colᵀ (N×K).
            let col = self.im2col(input, b);
            gemm_transpose_b(
                self.out_channels,
                n_cols,
                patch,
                go_b,
                &col,
                &mut self.grad_weights,
            );
            // Input gradient: Wᵀ (K×OC) · gradOut (OC×N), scattered back.
            colgrad.fill(0.0);
            gemm_transpose_a(
                patch,
                self.out_channels,
                n_cols,
                &self.weights,
                go_b,
                &mut colgrad,
            );
            self.col2im_accumulate(&colgrad, &mut grad_input, b);
        }
        grad_input
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let (_, c, _, _) = input.shape();
        assert_eq!(c, self.in_channels, "conv input channel mismatch");
        let out = self.forward_im2col(input);
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let Some(input) = self.cached_input.clone() else {
            panic!("backward called before forward");
        };
        self.backward_im2col(grad_output, &input)
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

    fn set_param_values(&mut self, values: &[f32]) {
        assert_eq!(
            values.len(),
            self.param_count(),
            "parameter buffer size mismatch"
        );
        let (w, b) = values.split_at(self.weights.len());
        self.weights.copy_from_slice(w);
        self.bias.copy_from_slice(b);
    }

    fn name(&self) -> &'static str {
        "conv2d"
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
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 1x1 kernel with weight 1 acts as identity.
        let mut conv = Conv2d::new(1, 1, 1, &mut rng());
        conv.weights = vec![1.0];
        conv.bias = vec![0.0];
        let input = Tensor::from_vec(1, 1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let out = conv.forward(&input);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn known_3x3_convolution() {
        // 3x3 averaging kernel over a 3x3 input of ones: centre sees 9
        // contributions, corners see 4, edges 6 (same padding).
        let mut conv = Conv2d::new(1, 1, 3, &mut rng());
        conv.weights = vec![1.0; 9];
        conv.bias = vec![0.0];
        let input = Tensor::from_vec(1, 1, 3, 3, vec![1.0; 9]);
        let out = conv.forward(&input);
        assert_eq!(out.at(0, 0, 1, 1), 9.0);
        assert_eq!(out.at(0, 0, 0, 0), 4.0);
        assert_eq!(out.at(0, 0, 0, 1), 6.0);
    }

    #[test]
    fn output_shape_preserved_for_all_kernel_sizes() {
        for k in 1..=5 {
            let mut conv = Conv2d::new(2, 3, k, &mut rng());
            let input = Tensor::zeros(2, 2, 7, 6);
            let out = conv.forward(&input);
            assert_eq!(out.shape(), (2, 3, 7, 6), "kernel {k}");
        }
    }

    #[test]
    fn bias_shifts_output() {
        let mut conv = Conv2d::new(1, 1, 1, &mut rng());
        conv.weights = vec![0.0];
        conv.bias = vec![2.5];
        let out = conv.forward(&Tensor::zeros(1, 1, 2, 2));
        assert!(out.as_slice().iter().all(|v| *v == 2.5));
    }

    #[test]
    fn gradient_check_small_conv() {
        let mut conv = Conv2d::new(2, 2, 3, &mut rng());
        let input = Tensor::from_vec(
            1,
            2,
            4,
            4,
            (0..32).map(|i| (i as f32 * 0.13).sin()).collect(),
        );
        check_input_gradient(&mut conv, &input, 2e-2);
    }

    #[test]
    fn gradient_check_even_kernel() {
        let mut conv = Conv2d::new(1, 2, 2, &mut rng());
        let input = Tensor::from_vec(
            2,
            1,
            3,
            3,
            (0..18).map(|i| (i as f32 * 0.37).cos()).collect(),
        );
        check_input_gradient(&mut conv, &input, 2e-2);
    }

    #[test]
    fn weight_gradient_finite_difference() {
        let mut conv = Conv2d::new(1, 1, 3, &mut rng());
        let input = Tensor::from_vec(1, 1, 4, 4, (0..16).map(|i| i as f32 * 0.1).collect());
        let out = conv.forward(&input);
        let ones = Tensor::from_vec(1, 1, 4, 4, vec![1.0; out.len()]);
        conv.backward(&ones);
        let analytic = conv.grad_weights[4]; // centre weight
        let eps = 1e-3f32;
        let sum_out = |c: &mut Conv2d| c.forward(&input).as_slice().iter().sum::<f32>();
        conv.weights[4] += eps;
        let plus = sum_out(&mut conv);
        conv.weights[4] -= 2.0 * eps;
        let minus = sum_out(&mut conv);
        let numeric = (plus - minus) / (2.0 * eps);
        assert!(
            (numeric - analytic).abs() < 1e-2 * (1.0 + numeric.abs()),
            "numeric {numeric} analytic {analytic}"
        );
    }

    #[test]
    fn update_changes_weights_and_clears_grads() {
        let mut conv = Conv2d::new(1, 1, 1, &mut rng());
        let input = Tensor::from_vec(1, 1, 1, 1, vec![1.0]);
        conv.forward(&input);
        conv.backward(&Tensor::from_vec(1, 1, 1, 1, vec![1.0]));
        let before = conv.weights[0];
        conv.update(&TrainingHyper::new(0.1, 0.0, 0.0).unwrap());
        assert_ne!(conv.weights[0], before);
        assert_eq!(conv.grad_weights[0], 0.0);
    }

    #[test]
    fn param_count_formula() {
        let conv = Conv2d::new(3, 8, 5, &mut rng());
        assert_eq!(conv.param_count(), 8 * 3 * 25 + 8);
    }

    /// The im2col path must agree with the naive reference bit-for-bit in
    /// structure (small tolerances only for float reassociation).
    #[test]
    fn im2col_matches_naive_forward_and_backward() {
        for (cin, cout, k, h, w) in [(1, 2, 3, 5, 5), (3, 4, 2, 6, 4), (2, 3, 5, 7, 7)] {
            let mut naive = Conv2d::new(cin, cout, k, &mut rng());
            let mut fast = naive.clone();
            let input = Tensor::from_vec(
                2,
                cin,
                h,
                w,
                (0..2 * cin * h * w)
                    .map(|i| ((i * 37) % 23) as f32 * 0.1 - 1.0)
                    .collect(),
            );
            let out_naive = naive.forward_naive(&input);
            let out_fast = fast.forward(&input);
            for (a, b) in out_naive.as_slice().iter().zip(out_fast.as_slice()) {
                assert!((a - b).abs() < 1e-4, "forward mismatch: {a} vs {b}");
            }
            let grad_out = Tensor::from_vec(
                2,
                cout,
                h,
                w,
                (0..2 * cout * h * w)
                    .map(|i| ((i * 17) % 13) as f32 * 0.2 - 1.0)
                    .collect(),
            );
            let gi_naive = naive.backward_naive(&grad_out, &input);
            let gi_fast = fast.backward(&grad_out);
            for (a, b) in gi_naive.as_slice().iter().zip(gi_fast.as_slice()) {
                assert!((a - b).abs() < 1e-3, "grad-input mismatch: {a} vs {b}");
            }
            for (a, b) in naive.grad_weights.iter().zip(&fast.grad_weights) {
                assert!((a - b).abs() < 1e-2, "grad-weight mismatch: {a} vs {b}");
            }
            for (a, b) in naive.grad_bias.iter().zip(&fast.grad_bias) {
                assert!((a - b).abs() < 1e-3, "grad-bias mismatch: {a} vs {b}");
            }
        }
    }
}

//! The generated matrices the analysis's property tests share.

use javelin_sparse::CsrMatrix;
use javelin_synth::circuit::{power_grid, transient_circuit};
use javelin_synth::fem::shell_strip;
use javelin_synth::grid::{
    convection_diffusion_2d, convection_diffusion_3d, laplace_2d, laplace_3d,
};
use javelin_synth::util::{bordered, drop_random_offdiag};
use proptest::prelude::*;

/// One of the `javelin-synth` generators at a drawn size and seed,
/// bordered (a heavy lower stage) when `border > 0`.
pub(crate) fn generated_matrix() -> impl Strategy<Value = (String, CsrMatrix<f64>)> {
    (0usize..8, 3usize..9, 0u64..1 << 20, 0usize..5).prop_map(|(g, s, seed, border)| {
        let (name, a) = match g {
            0 => ("laplace_2d", laplace_2d(s, s + 1)),
            1 => ("laplace_3d", laplace_3d(s / 2 + 2, 3, 3)),
            2 => (
                "convection_diffusion_2d",
                convection_diffusion_2d(s, s, 0.4, -0.3),
            ),
            3 => (
                "convection_diffusion_3d",
                convection_diffusion_3d(s / 2 + 2, 3, 3, (1.0, 0.5, 0.25)),
            ),
            4 => (
                "transient_circuit",
                transient_circuit(20 * s, s, seed % 2 == 0, seed),
            ),
            5 => ("power_grid", power_grid(20 * s, s, 2, seed)),
            6 => ("shell_strip", shell_strip(s, 3, 2, seed)),
            _ => (
                "drop_random_offdiag",
                drop_random_offdiag(&laplace_2d(s, s), 0.3, seed),
            ),
        };
        let a = if border > 0 { bordered(&a, border) } else { a };
        (format!("{name} s {s} seed {seed} border {border}"), a)
    })
}

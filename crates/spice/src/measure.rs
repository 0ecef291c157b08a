//! Measurement helpers shared by the analyses and the stability tool.
//!
//! These implement the "waveform calculator" style post-processing the
//! original tool relies on: step-response overshoot, Bode gain/phase curves,
//! crossover frequencies and the classical gain/phase margins that serve as
//! the paper's baseline comparison (its Fig. 2 and Fig. 3).

use loopscope_math::interp;

/// Percent overshoot of a step response.
///
/// `initial` and `final_value` are the settled levels before and after the
/// step; the overshoot is `(peak − final) / (final − initial) · 100` for a
/// rising step (and the mirror image for a falling step). Returns 0 when the
/// step has zero amplitude or the response never exceeds its final value.
///
/// ```
/// let wave = vec![0.0, 0.8, 1.4, 1.1, 0.95, 1.02, 1.0];
/// let os = loopscope_spice::measure::overshoot_percent(&wave, 0.0, 1.0);
/// assert!((os - 40.0).abs() < 1e-9);
/// ```
pub fn overshoot_percent(waveform: &[f64], initial: f64, final_value: f64) -> f64 {
    let swing = final_value - initial;
    if swing == 0.0 || waveform.is_empty() {
        return 0.0;
    }
    let extreme = if swing > 0.0 {
        waveform.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    } else {
        waveform.iter().cloned().fold(f64::INFINITY, f64::min)
    };
    let over = (extreme - final_value) / swing;
    (over.max(0.0)) * 100.0
}

/// Unwraps a phase sequence given in degrees so that consecutive samples never
/// jump by more than 180°.
///
/// ```
/// let wrapped = vec![170.0, 179.0, -179.0, -170.0];
/// let unwrapped = loopscope_spice::measure::unwrap_phase_deg(&wrapped);
/// assert!((unwrapped[2] - 181.0).abs() < 1e-9);
/// ```
pub fn unwrap_phase_deg(phase: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(phase.len());
    let mut offset = 0.0;
    for (i, &p) in phase.iter().enumerate() {
        if i > 0 {
            let prev = phase[i - 1];
            if p - prev > 180.0 {
                offset -= 360.0;
            } else if prev - p > 180.0 {
                offset += 360.0;
            }
        }
        out.push(p + offset);
    }
    out
}

/// Classical Bode stability margins extracted from an open-loop response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BodeMargins {
    /// Unity-gain (0 dB) crossover frequency in hertz, if the gain crosses 0 dB.
    pub gain_crossover_hz: Option<f64>,
    /// Phase margin in degrees, measured at the gain crossover.
    pub phase_margin_deg: Option<f64>,
    /// Frequency where the phase crosses −180°, in hertz.
    pub phase_crossover_hz: Option<f64>,
    /// Gain margin in decibels, measured at the phase crossover.
    pub gain_margin_db: Option<f64>,
}

/// Computes gain/phase margins from an open-loop frequency response.
///
/// `gain_db` and `phase_deg` must be sampled on `freqs` (hertz, ascending).
/// The phase is only unwrapped (see [`unwrap_phase_deg`]), not re-referenced:
/// the phase margin is `PM = 180° + φ(f_c)` at the gain crossover `f_c`, so
/// the response must be a loop gain whose low-frequency phase is near 0°
/// (the standard convention for loop-gain plots).
///
/// ```
/// use loopscope_math::{logspace, Complex64};
/// // Single-pole integrator-like loop: gain 1000, pole at 10 Hz.
/// let freqs = logspace(0.1, 1.0e6, 601);
/// let (gain_db, phase): (Vec<f64>, Vec<f64>) = freqs.iter().map(|&f| {
///     let h = Complex64::from_real(1000.0)
///         / (Complex64::ONE + Complex64::new(0.0, f / 10.0));
///     (h.abs_db(), h.arg_deg())
/// }).unzip();
/// let m = loopscope_spice::measure::bode_margins(&freqs, &gain_db, &phase);
/// // Crossover near 10 kHz, phase margin near 90°.
/// assert!((m.gain_crossover_hz.unwrap() - 1.0e4).abs() / 1.0e4 < 0.01);
/// assert!((m.phase_margin_deg.unwrap() - 90.0).abs() < 1.0);
/// ```
pub fn bode_margins(freqs: &[f64], gain_db: &[f64], phase_deg: &[f64]) -> BodeMargins {
    assert_eq!(freqs.len(), gain_db.len());
    assert_eq!(freqs.len(), phase_deg.len());
    let phase = unwrap_phase_deg(phase_deg);

    let gain_crossover_hz = interp::first_crossing(freqs, gain_db, 0.0);
    let phase_margin_deg = gain_crossover_hz.map(|fc| {
        let p = interp::lerp_at(freqs, &phase, fc);
        180.0 + p
    });
    let phase_crossover_hz = interp::first_crossing(freqs, &phase, -180.0);
    let gain_margin_db = phase_crossover_hz.map(|fp| -interp::lerp_at(freqs, gain_db, fp));

    BodeMargins {
        gain_crossover_hz,
        phase_margin_deg,
        phase_crossover_hz,
        gain_margin_db,
    }
}

/// Finds the settled (final) value of a waveform as the mean of its last
/// `tail_fraction` of samples — a simple, robust estimate for overshoot
/// measurements on well-damped responses.
///
/// # Panics
///
/// Panics if the waveform is empty or `tail_fraction` is not in `(0, 1]`.
pub fn settled_value(waveform: &[f64], tail_fraction: f64) -> f64 {
    assert!(!waveform.is_empty(), "waveform must not be empty");
    assert!(
        tail_fraction > 0.0 && tail_fraction <= 1.0,
        "tail fraction must be in (0, 1]"
    );
    let n = waveform.len();
    let start = n - ((n as f64 * tail_fraction).ceil() as usize).clamp(1, n);
    let tail = &waveform[start..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopscope_math::{logspace, Complex64, SecondOrder};

    #[test]
    fn overshoot_of_flat_response_is_zero() {
        let wave = vec![0.0, 0.5, 0.9, 1.0, 1.0];
        assert_eq!(overshoot_percent(&wave, 0.0, 1.0), 0.0);
        assert_eq!(overshoot_percent(&[], 0.0, 1.0), 0.0);
        assert_eq!(overshoot_percent(&wave, 1.0, 1.0), 0.0);
    }

    #[test]
    fn overshoot_of_falling_step() {
        let wave = vec![1.0, 0.4, -0.2, 0.1, 0.0];
        let os = overshoot_percent(&wave, 1.0, 0.0);
        assert!((os - 20.0).abs() < 1e-9);
    }

    #[test]
    fn overshoot_matches_second_order_theory() {
        for zeta in [0.2, 0.4, 0.6] {
            let sys = SecondOrder::from_damping(zeta, 1.0e3);
            let waveform: Vec<f64> = (0..20_000)
                .map(|i| sys.step_response(i as f64 * 5.0e-7))
                .collect();
            let os = overshoot_percent(&waveform, 0.0, 1.0);
            assert!(
                (os - sys.percent_overshoot()).abs() < 0.5,
                "zeta {zeta}: {os} vs {}",
                sys.percent_overshoot()
            );
        }
    }

    #[test]
    fn unwrap_handles_multiple_wraps() {
        let wrapped = vec![0.0, -90.0, -179.0, 179.0, 90.0, -10.0, -170.0, 170.0];
        let un = unwrap_phase_deg(&wrapped);
        assert_eq!(un[0], 0.0);
        assert!((un[3] - (-181.0)).abs() < 1e-9);
        assert!((un[7] - (-550.0)).abs() < 1e-9);
        // No consecutive jump exceeds 180°.
        for w in un.windows(2) {
            assert!((w[1] - w[0]).abs() <= 180.0 + 1e-9);
        }
    }

    #[test]
    fn second_order_loop_margins() {
        // Open loop L(s) = ωn²/(s(s + 2ζωn)) gives the classical closed-loop
        // second-order system; check the phase margin formula against the
        // analytic expression.
        let zeta = 0.3;
        let wn = 2.0 * std::f64::consts::PI * 1.0e3;
        let freqs = logspace(1.0, 1.0e6, 2401);
        let (gain_db, phase): (Vec<f64>, Vec<f64>) = freqs
            .iter()
            .map(|&f| {
                let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
                let l = Complex64::from_real(wn * wn) / (s * (s + 2.0 * zeta * wn));
                (l.abs_db(), l.arg_deg())
            })
            .unzip();
        let m = bode_margins(&freqs, &gain_db, &phase);
        let sys = SecondOrder::from_damping(zeta, 1.0e3);
        let pm = m.phase_margin_deg.unwrap();
        assert!(
            (pm - sys.phase_margin_deg()).abs() < 1.0,
            "pm {pm} vs {}",
            sys.phase_margin_deg()
        );
        // A two-pole loop never reaches −180°, so no gain margin exists.
        assert!(m.phase_crossover_hz.is_none());
    }

    #[test]
    fn three_pole_loop_has_gain_margin() {
        let freqs = logspace(1.0, 1.0e7, 2401);
        let poles_hz = [1.0e3, 30.0e3, 100.0e3];
        let (gain_db, phase): (Vec<f64>, Vec<f64>) = freqs
            .iter()
            .map(|&f| {
                let mut h = Complex64::from_real(30.0);
                for p in poles_hz {
                    h /= Complex64::ONE + Complex64::new(0.0, f / p);
                }
                (h.abs_db(), h.arg_deg())
            })
            .unzip();
        let m = bode_margins(&freqs, &gain_db, &phase);
        assert!(m.gain_crossover_hz.is_some());
        assert!(m.phase_crossover_hz.is_some());
        let gm = m.gain_margin_db.unwrap();
        assert!(gm.is_finite());
        // The phase crossover must lie above the gain crossover for this loop.
        assert!(m.phase_crossover_hz.unwrap() > m.gain_crossover_hz.unwrap());
    }

    #[test]
    fn settled_value_uses_tail() {
        let wave = vec![0.0, 2.0, 1.5, 1.0, 1.0, 1.0, 1.0];
        assert!((settled_value(&wave, 0.4) - 1.0).abs() < 1e-12);
        assert!((settled_value(&wave, 1.0) - (7.5 / 7.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn settled_value_rejects_empty() {
        settled_value(&[], 0.5);
    }
}

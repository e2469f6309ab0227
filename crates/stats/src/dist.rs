//! Probability distributions needed for hypothesis testing: the standard
//! normal CDF and Student's t CDF (via the regularised incomplete beta
//! function).

/// Standard normal CDF Φ(x), via the complementary error function
/// (Abramowitz & Stegun 7.1.26 polynomial, |error| < 1.5e-7).
pub(crate) fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Complementary error function.
pub(crate) fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    // Numerical Recipes' erfc approximation (|error| < 1.2e-7 everywhere).
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Natural log of the gamma function (Lanczos approximation).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 6] = [
        76.18009172947146,
        -86.50532032941677,
        24.01409824083091,
        -1.231739572450155,
        0.1208650973866179e-2,
        -0.5395239384953e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000000000190015;
    for c in COEF {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.5066282746310005 * ser / x).ln()
}

/// Regularised incomplete beta function `I_x(a, b)` via continued fraction
/// (Numerical Recipes `betai`).
pub(crate) fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta function.
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 200;
    const EPS: f64 = 3e-14;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m_f = m as f64;
        let m2 = 2.0 * m_f;
        let aa = m_f * (b - m_f) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m_f) * (qab + m_f) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Student's t CDF with `df` degrees of freedom.
pub(crate) fn t_cdf(t: f64, df: f64) -> f64 {
    if df <= 0.0 {
        return f64::NAN;
    }
    let x = df / (df + t * t);
    let p = 0.5 * incomplete_beta(df / 2.0, 0.5, x);
    if t >= 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Two-sided p-value for a t statistic.
pub(crate) fn t_two_sided_p(t: f64, df: f64) -> f64 {
    2.0 * (1.0 - t_cdf(t.abs(), df))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.9750021).abs() < 1e-4);
        assert!((normal_cdf(-1.96) - 0.0249979).abs() < 1e-4);
        assert!(normal_cdf(8.0) > 0.999999);
        assert!(normal_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn ln_gamma_factorials() {
        // Γ(n) = (n-1)!
        assert!((ln_gamma(5.0) - (24.0f64).ln()).abs() < 1e-10);
        assert!((ln_gamma(1.0)).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn incomplete_beta_boundaries_and_symmetry() {
        assert_eq!(incomplete_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(incomplete_beta(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 − I_{1−x}(b,a)
        let v = incomplete_beta(2.5, 1.5, 0.3);
        let w = 1.0 - incomplete_beta(1.5, 2.5, 0.7);
        assert!((v - w).abs() < 1e-10);
        // I_x(1,1) = x (uniform distribution).
        assert!((incomplete_beta(1.0, 1.0, 0.42) - 0.42).abs() < 1e-10);
    }

    #[test]
    fn t_cdf_known_values() {
        // t distribution with large df approaches normal.
        assert!((t_cdf(1.96, 1e6) - normal_cdf(1.96)).abs() < 1e-4);
        // Symmetric around 0.
        assert!((t_cdf(0.0, 7.0) - 0.5).abs() < 1e-10);
        assert!((t_cdf(1.5, 7.0) + t_cdf(-1.5, 7.0) - 1.0).abs() < 1e-10);
        // t = 2.776 at df = 4 is the 97.5th percentile.
        assert!((t_cdf(2.776, 4.0) - 0.975).abs() < 1e-3);
    }

    #[test]
    fn two_sided_p_matches_tables() {
        // |t| = 2.776, df = 4 → p ≈ 0.05.
        assert!((t_two_sided_p(2.776, 4.0) - 0.05).abs() < 2e-3);
        assert!((t_two_sided_p(-2.776, 4.0) - 0.05).abs() < 2e-3);
    }
}

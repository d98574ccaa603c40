//! Minimal dense linear algebra: least squares and Lawson–Hanson NNLS.
//!
//! Sized for estimation problems with a handful of classes; no external
//! dependency is warranted.

/// Solves `A x = b` for square `A` (row-major, `n × n`) by Gaussian
/// elimination with partial pivoting. Returns `None` if singular.
pub(crate) fn solve_square(a: &[Vec<f64>], b: &[f64]) -> Option<Vec<f64>> {
    let n = b.len();
    let mut m: Vec<Vec<f64>> = a
        .iter()
        .zip(b)
        .map(|(row, &rhs)| {
            let mut r = row.clone();
            r.push(rhs);
            r
        })
        .collect();
    for col in 0..n {
        // Pivot.
        let pivot = (col..n).max_by(|&i, &j| {
            m[i][col]
                .abs()
                .partial_cmp(&m[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        for row in 0..n {
            if row != col {
                let factor = m[row][col] / m[col][col];
                let (pivot_row, target_row) = if row < col {
                    let (a, b) = m.split_at_mut(col);
                    (&b[0], &mut a[row])
                } else {
                    let (a, b) = m.split_at_mut(row);
                    (&a[col], &mut b[0])
                };
                for (t, p) in target_row[col..=n].iter_mut().zip(&pivot_row[col..=n]) {
                    *t -= factor * p;
                }
            }
        }
    }
    Some((0..n).map(|i| m[i][n] / m[i][i]).collect())
}

/// Ordinary least squares `min ‖A x − b‖₂` via the normal equations.
/// `a` is `m × n` row-major with `m ≥ n`. Returns `None` if the normal
/// matrix is singular.
pub(crate) fn least_squares(a: &[Vec<f64>], b: &[f64]) -> Option<Vec<f64>> {
    let m = a.len();
    if m == 0 {
        return None;
    }
    let n = a[0].len();
    let mut ata = vec![vec![0.0; n]; n];
    let mut atb = vec![0.0; n];
    for (row, &rhs) in a.iter().zip(b) {
        for i in 0..n {
            atb[i] += row[i] * rhs;
            for j in 0..n {
                ata[i][j] += row[i] * row[j];
            }
        }
    }
    solve_square(&ata, &atb)
}

/// Non-negative least squares `min ‖A x − b‖₂ s.t. x ≥ 0` by the
/// Lawson–Hanson active-set algorithm.
///
/// Returns `None` only if an inner unconstrained solve is singular in a
/// way the active-set loop cannot recover from.
pub(crate) fn nnls(a: &[Vec<f64>], b: &[f64]) -> Option<Vec<f64>> {
    let m = a.len();
    if m == 0 {
        return None;
    }
    let n = a[0].len();
    let mut x = vec![0.0_f64; n];
    let mut passive = vec![false; n];
    let max_outer = 6 * n + 10;

    for _ in 0..max_outer {
        // Gradient w = Aᵀ(b − A x).
        let residual: Vec<f64> = a
            .iter()
            .zip(b)
            .map(|(row, &rhs)| rhs - row.iter().zip(&x).map(|(r, xi)| r * xi).sum::<f64>())
            .collect();
        let mut w = vec![0.0; n];
        for (row, &r) in a.iter().zip(&residual) {
            for j in 0..n {
                w[j] += row[j] * r;
            }
        }
        // Pick the most promising inactive variable.
        let candidate = (0..n)
            .filter(|&j| !passive[j])
            .max_by(|&i, &j| w[i].partial_cmp(&w[j]).unwrap_or(std::cmp::Ordering::Equal));
        match candidate {
            Some(j) if w[j] > 1e-10 => passive[j] = true,
            _ => return Some(x), // KKT satisfied
        }

        // Inner loop: solve on the passive set; clip negatives.
        loop {
            let idx: Vec<usize> = (0..n).filter(|&j| passive[j]).collect();
            let sub_a: Vec<Vec<f64>> = a
                .iter()
                .map(|row| idx.iter().map(|&j| row[j]).collect())
                .collect();
            let z = least_squares(&sub_a, b)?;
            if z.iter().all(|&v| v > 1e-12) {
                for (k, &j) in idx.iter().enumerate() {
                    x[j] = z[k];
                }
                break;
            }
            // Step toward z until the first variable hits zero.
            let mut alpha = f64::INFINITY;
            for (k, &j) in idx.iter().enumerate() {
                if z[k] <= 1e-12 {
                    let denom = x[j] - z[k];
                    if denom > 0.0 {
                        alpha = alpha.min(x[j] / denom);
                    }
                }
            }
            if !alpha.is_finite() {
                alpha = 0.0;
            }
            for (k, &j) in idx.iter().enumerate() {
                x[j] += alpha * (z[k] - x[j]);
                if x[j] <= 1e-12 {
                    x[j] = 0.0;
                    passive[j] = false;
                }
            }
        }
    }
    Some(x)
}

/// Pearson correlation of two equal-length samples; 0 when degenerate.
pub(crate) fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_square_identity() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let x = solve_square(&a, &[3.0, 4.0]).unwrap();
        assert_eq!(x, vec![3.0, 4.0]);
    }

    #[test]
    fn solve_square_general() {
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let x = solve_square(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn solve_square_singular_is_none() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve_square(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn least_squares_recovers_plane() {
        // y = 2 a + 3 b with noise-free samples.
        let a: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![i as f64, (i * i % 7) as f64])
            .collect();
        let b: Vec<f64> = a.iter().map(|r| 2.0 * r[0] + 3.0 * r[1]).collect();
        let x = least_squares(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-8);
        assert!((x[1] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn nnls_matches_ls_when_positive() {
        let a: Vec<Vec<f64>> = (1..12).map(|i| vec![i as f64, 1.0]).collect();
        let b: Vec<f64> = a.iter().map(|r| 0.5 * r[0] + 2.0 * r[1]).collect();
        let x = nnls(&a, &b).unwrap();
        assert!((x[0] - 0.5).abs() < 1e-8, "{x:?}");
        assert!((x[1] - 2.0).abs() < 1e-8, "{x:?}");
    }

    #[test]
    fn nnls_clamps_negative_solution() {
        // Unconstrained solution would have a negative coefficient.
        let a = vec![
            vec![1.0, 1.0],
            vec![2.0, 1.9],
            vec![3.0, 3.1],
            vec![4.0, 4.0],
        ];
        // b strongly anti-correlated with second column given first.
        let b = vec![1.0, 2.1, 2.9, 4.1];
        let x = nnls(&a, &b).unwrap();
        // Least squares gives (2.08, -1.07); clamping the second
        // coefficient leaves the one-column fit Σ a₀b / Σ a₀² = 1.01.
        assert_eq!(x[1], 0.0, "{x:?}");
        assert!((x[0] - 1.01).abs() < 1e-9, "{x:?}");
    }

    #[test]
    fn correlation_signs() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y_up = vec![2.0, 4.0, 6.0, 8.0];
        let y_down = vec![8.0, 6.0, 4.0, 2.0];
        assert!((correlation(&x, &y_up) - 1.0).abs() < 1e-12);
        assert!((correlation(&x, &y_down) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&x, &[1.0, 1.0, 1.0, 1.0]), 0.0);
    }
}

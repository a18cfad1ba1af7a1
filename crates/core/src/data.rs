//! Observation-by-variable data matrices and stage-1 normalization.
//!
//! The input to Co-plot is a matrix `Y` of `n` observations by `p`
//! variables, possibly with missing cells (the paper's Table 1 has several
//! "N/A"s). Stage 1 turns each column into z-scores:
//! `Z_ij = (Y_ij - mean_j) / std_j` (Eq. 1), which makes the city-block
//! distances of stage 2 unit-free.

use crate::error::CoplotError;
use wl_stats::describe;

/// How to handle missing cells before analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Imputation {
    /// Refuse to analyze incomplete data (error in the pipeline).
    #[default]
    Forbid,
    /// Replace a missing cell with its column mean — equivalently, a
    /// z-score of zero, i.e. "this observation is average in this variable".
    ColumnMean,
    /// Drop every variable that has any missing cell.
    DropVariables,
}

/// A named observations-by-variables matrix with optional missing cells.
#[derive(Debug, Clone, PartialEq)]
pub struct DataMatrix {
    observations: Vec<String>,
    variables: Vec<String>,
    /// Row-major `n x p` cells; `None` is a missing value.
    cells: Vec<Option<f64>>,
}

impl DataMatrix {
    /// Build from complete rows.
    ///
    /// Convenience constructor for statically-shaped data; use
    /// [`DataMatrix::try_from_rows`] for untrusted input.
    ///
    /// # Panics
    /// Panics if row lengths don't match the variable count.
    pub fn from_rows(
        observations: Vec<String>,
        variables: Vec<String>,
        rows: &[&[f64]],
    ) -> DataMatrix {
        Self::try_from_rows(observations, variables, rows).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build from complete rows, reporting shape mismatches as errors.
    ///
    /// # Errors
    /// Returns [`CoplotError::DimensionMismatch`] when the row count
    /// doesn't match the observation names or a row's length doesn't match
    /// the variable count.
    pub fn try_from_rows(
        observations: Vec<String>,
        variables: Vec<String>,
        rows: &[&[f64]],
    ) -> Result<DataMatrix, CoplotError> {
        let optional: Vec<Vec<Option<f64>>> = rows
            .iter()
            .map(|row| row.iter().map(|&v| Some(v)).collect())
            .collect();
        let refs: Vec<&[Option<f64>]> = optional.iter().map(|r| r.as_slice()).collect();
        Self::try_from_optional_rows(observations, variables, &refs)
    }

    /// Build from rows that may contain missing values.
    ///
    /// Convenience constructor for statically-shaped data; use
    /// [`DataMatrix::try_from_optional_rows`] for untrusted input.
    ///
    /// # Panics
    /// Panics if row lengths don't match the variable count.
    pub fn from_optional_rows(
        observations: Vec<String>,
        variables: Vec<String>,
        rows: &[&[Option<f64>]],
    ) -> DataMatrix {
        Self::try_from_optional_rows(observations, variables, rows)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build from rows that may contain missing values, reporting shape
    /// mismatches as errors.
    ///
    /// # Errors
    /// Returns [`CoplotError::DimensionMismatch`] when the row count
    /// doesn't match the observation names or a row's length doesn't match
    /// the variable count.
    pub fn try_from_optional_rows(
        observations: Vec<String>,
        variables: Vec<String>,
        rows: &[&[Option<f64>]],
    ) -> Result<DataMatrix, CoplotError> {
        if rows.len() != observations.len() {
            return Err(CoplotError::DimensionMismatch {
                context: "data matrix rows vs observation names".into(),
                expected: observations.len(),
                got: rows.len(),
            });
        }
        let p = variables.len();
        let mut cells = Vec::with_capacity(rows.len() * p);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != p {
                return Err(CoplotError::DimensionMismatch {
                    context: format!("data matrix row {i}"),
                    expected: p,
                    got: row.len(),
                });
            }
            cells.extend_from_slice(row);
        }
        Ok(DataMatrix {
            observations,
            variables,
            cells,
        })
    }

    /// Number of observations `n`.
    pub fn n_observations(&self) -> usize {
        self.observations.len()
    }

    /// Number of variables `p`.
    pub fn n_variables(&self) -> usize {
        self.variables.len()
    }

    /// Observation names.
    pub fn observations(&self) -> &[String] {
        &self.observations
    }

    /// Variable names.
    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    /// Cell value (None = missing).
    pub fn get(&self, obs: usize, var: usize) -> Option<f64> {
        self.cells[obs * self.variables.len() + var]
    }

    /// Column `var` with missing cells preserved.
    pub fn column(&self, var: usize) -> Vec<Option<f64>> {
        (0..self.observations.len())
            .map(|i| self.get(i, var))
            .collect()
    }

    /// True when some cell is missing.
    pub fn has_missing(&self) -> bool {
        self.cells.iter().any(|c| c.is_none())
    }

    /// A copy keeping only the variables at the given indices, in order.
    ///
    /// # Panics
    /// Panics on an out-of-range index.
    pub fn select_variables(&self, keep: &[usize]) -> DataMatrix {
        let p = self.variables.len();
        for &k in keep {
            assert!(k < p, "variable index {k} out of range");
        }
        let variables = keep.iter().map(|&k| self.variables[k].clone()).collect();
        let mut cells = Vec::with_capacity(self.observations.len() * keep.len());
        for i in 0..self.observations.len() {
            for &k in keep {
                cells.push(self.get(i, k));
            }
        }
        DataMatrix {
            observations: self.observations.clone(),
            variables,
            cells,
        }
    }

    /// A copy keeping only variables by name (unknown names are an error).
    pub fn select_variables_by_name(&self, names: &[&str]) -> Result<DataMatrix, String> {
        let mut keep = Vec::with_capacity(names.len());
        for name in names {
            let idx = self
                .variables
                .iter()
                .position(|v| v == name)
                .ok_or_else(|| format!("unknown variable {name:?}"))?;
            keep.push(idx);
        }
        Ok(self.select_variables(&keep))
    }

    /// A copy keeping only the observations at the given indices, in order.
    ///
    /// # Panics
    /// Panics on an out-of-range index.
    pub fn select_observations(&self, keep: &[usize]) -> DataMatrix {
        let n = self.observations.len();
        for &k in keep {
            assert!(k < n, "observation index {k} out of range");
        }
        let observations = keep.iter().map(|&k| self.observations[k].clone()).collect();
        let mut cells = Vec::with_capacity(keep.len() * self.variables.len());
        for &k in keep {
            for v in 0..self.variables.len() {
                cells.push(self.get(k, v));
            }
        }
        DataMatrix {
            observations,
            variables: self.variables.clone(),
            cells,
        }
    }

    /// A copy dropping observations by name (unknown names are an error).
    pub fn drop_observations_by_name(&self, names: &[&str]) -> Result<DataMatrix, String> {
        for name in names {
            if !self.observations.iter().any(|o| o == name) {
                return Err(format!("unknown observation {name:?}"));
            }
        }
        let keep: Vec<usize> = (0..self.observations.len())
            .filter(|&i| !names.contains(&self.observations[i].as_str()))
            .collect();
        Ok(self.select_observations(&keep))
    }

    /// Stage-1 normalization with the chosen missing-cell policy.
    ///
    /// Column statistics are computed over *present* cells. Constant columns
    /// (zero standard deviation) are rejected: their z-scores are undefined
    /// and they carry no ordering information. NaN or infinite cells are
    /// rejected outright — they are data corruption, not missing values.
    pub fn normalize(&self, imputation: Imputation) -> Result<NormalizedMatrix, CoplotError> {
        let n = self.observations.len();
        if n < 3 {
            return Err(CoplotError::TooFewObservations { n, min: 3 });
        }
        if self.variables.is_empty() {
            return Err(CoplotError::EmptyInput { what: "variables" });
        }

        // Choose the surviving variables.
        let keep: Vec<usize> = match imputation {
            Imputation::DropVariables => (0..self.variables.len())
                .filter(|&v| (0..n).all(|i| self.get(i, v).is_some()))
                .collect(),
            _ => (0..self.variables.len()).collect(),
        };
        if keep.is_empty() {
            return Err(CoplotError::EmptyInput {
                what: "complete variables",
            });
        }
        if imputation == Imputation::Forbid {
            for &v in &keep {
                if (0..n).any(|i| self.get(i, v).is_none()) {
                    return Err(CoplotError::Normalization(format!(
                        "variable {:?} has missing cells (imputation forbidden)",
                        self.variables[v]
                    )));
                }
            }
        }

        let mut z = vec![0.0; n * keep.len()];
        for (out_v, &v) in keep.iter().enumerate() {
            let present: Vec<f64> = (0..n).filter_map(|i| self.get(i, v)).collect();
            if present.len() < 2 {
                return Err(CoplotError::Normalization(format!(
                    "variable {:?} has fewer than 2 known values",
                    self.variables[v]
                )));
            }
            if present.iter().any(|c| !c.is_finite()) {
                return Err(CoplotError::NonFinite(format!(
                    "variable {:?} contains NaN or infinite cells",
                    self.variables[v]
                )));
            }
            let mean = describe::mean(&present);
            let sd = describe::std_dev(&present);
            // Finite cells can still overflow the sums: an infinite sd
            // would zero every z-score, an infinite mean make them NaN.
            if !mean.is_finite() || !sd.is_finite() {
                return Err(CoplotError::NonFinite(format!(
                    "variable {:?} overflows: its mean or standard deviation is not finite",
                    self.variables[v]
                )));
            }
            if sd <= 0.0 {
                return Err(CoplotError::Normalization(format!(
                    "variable {:?} is constant; z-scores undefined",
                    self.variables[v]
                )));
            }
            for i in 0..n {
                // Missing cells become z = 0 under ColumnMean.
                let zij = match self.get(i, v) {
                    Some(y) => (y - mean) / sd,
                    None => 0.0,
                };
                z[i * keep.len() + out_v] = zij;
            }
        }

        Ok(NormalizedMatrix {
            observations: self.observations.clone(),
            variables: keep.iter().map(|&v| self.variables[v].clone()).collect(),
            z,
        })
    }
}

/// Stage-1 output: complete z-score matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedMatrix {
    observations: Vec<String>,
    variables: Vec<String>,
    /// Row-major `n x p` z-scores.
    z: Vec<f64>,
}

impl NormalizedMatrix {
    /// Number of observations.
    pub fn n_observations(&self) -> usize {
        self.observations.len()
    }

    /// Number of variables.
    pub fn n_variables(&self) -> usize {
        self.variables.len()
    }

    /// Observation names.
    pub fn observations(&self) -> &[String] {
        &self.observations
    }

    /// Variable names.
    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    /// One observation row of z-scores.
    pub fn row(&self, obs: usize) -> &[f64] {
        let p = self.variables.len();
        &self.z[obs * p..(obs + 1) * p]
    }

    /// One variable column of z-scores.
    pub fn column(&self, var: usize) -> Vec<f64> {
        (0..self.observations.len())
            .map(|i| self.z[i * self.variables.len() + var])
            .collect()
    }

    /// A copy keeping only the variables at the given indices, in order.
    ///
    /// Z-scores are per-column, so the subset is exact — no re-normalization
    /// is needed. This is what lets the engine reuse one normalization pass
    /// across variable-elimination rounds and subset searches.
    ///
    /// # Panics
    /// Panics on an out-of-range index — a caller bug, not a data error.
    pub fn select_variables(&self, keep: &[usize]) -> NormalizedMatrix {
        let p = self.variables.len();
        for &v in keep {
            assert!(v < p, "variable index {v} out of range");
        }
        let n = self.observations.len();
        let mut z = Vec::with_capacity(n * keep.len());
        for i in 0..n {
            let row = &self.z[i * p..(i + 1) * p];
            z.extend(keep.iter().map(|&v| row[v]));
        }
        NormalizedMatrix {
            observations: self.observations.clone(),
            variables: keep.iter().map(|&v| self.variables[v].clone()).collect(),
            z,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(prefix: &str, n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{prefix}{i}")).collect()
    }

    #[test]
    fn normalization_gives_zero_mean_unit_sd() {
        let d = DataMatrix::from_rows(
            names("o", 4),
            names("v", 2),
            &[&[1.0, 100.0], &[2.0, 200.0], &[3.0, 300.0], &[4.0, 400.0]],
        );
        let z = d.normalize(Imputation::Forbid).unwrap();
        for v in 0..2 {
            let col = z.column(v);
            assert!(wl_stats::mean(&col).abs() < 1e-12);
            assert!((wl_stats::std_dev(&col) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn normalization_is_scale_invariant() {
        let rows1: &[&[f64]] = &[&[1.0], &[2.0], &[5.0]];
        let rows2: &[&[f64]] = &[&[10.0], &[20.0], &[50.0]];
        let z1 = DataMatrix::from_rows(names("o", 3), names("v", 1), rows1)
            .normalize(Imputation::Forbid)
            .unwrap();
        let z2 = DataMatrix::from_rows(names("o", 3), names("v", 1), rows2)
            .normalize(Imputation::Forbid)
            .unwrap();
        for i in 0..3 {
            assert!((z1.row(i)[0] - z2.row(i)[0]).abs() < 1e-12);
        }
    }

    #[test]
    fn forbid_rejects_missing() {
        let d = DataMatrix::from_optional_rows(
            names("o", 3),
            names("v", 1),
            &[&[Some(1.0)], &[None], &[Some(3.0)]],
        );
        assert!(d.normalize(Imputation::Forbid).is_err());
        assert!(d.has_missing());
    }

    #[test]
    fn column_mean_imputes_to_zero_z() {
        let d = DataMatrix::from_optional_rows(
            names("o", 3),
            names("v", 1),
            &[&[Some(1.0)], &[None], &[Some(3.0)]],
        );
        let z = d.normalize(Imputation::ColumnMean).unwrap();
        assert!(z.row(1)[0].abs() < 1e-12, "missing cell must map to z=0");
        // Present cells are normalized by the stats of present cells only.
        assert!(z.row(0)[0] < 0.0 && z.row(2)[0] > 0.0);
    }

    #[test]
    fn drop_variables_removes_incomplete_columns() {
        let d = DataMatrix::from_optional_rows(
            names("o", 3),
            vec!["full".into(), "holey".into()],
            &[
                &[Some(1.0), Some(9.0)],
                &[Some(2.0), None],
                &[Some(3.0), Some(7.0)],
            ],
        );
        let z = d.normalize(Imputation::DropVariables).unwrap();
        assert_eq!(z.variables(), &["full".to_string()]);
        assert_eq!(z.n_variables(), 1);
    }

    #[test]
    fn constant_variable_rejected() {
        let d = DataMatrix::from_rows(
            names("o", 3),
            names("v", 1),
            &[&[5.0], &[5.0], &[5.0]],
        );
        let err = d.normalize(Imputation::Forbid).unwrap_err();
        assert!(err.to_string().contains("constant"));
    }

    #[test]
    fn nan_cell_rejected() {
        let d = DataMatrix::from_rows(
            names("o", 3),
            names("v", 1),
            &[&[1.0], &[f64::NAN], &[3.0]],
        );
        let err = d.normalize(Imputation::Forbid).unwrap_err();
        assert!(matches!(err, CoplotError::NonFinite(_)), "{err}");
    }

    #[test]
    fn ragged_rows_are_an_error() {
        let err = DataMatrix::try_from_rows(
            names("o", 2),
            names("v", 2),
            &[&[1.0, 2.0], &[3.0]],
        )
        .unwrap_err();
        assert!(matches!(err, CoplotError::DimensionMismatch { .. }), "{err}");
    }

    #[test]
    fn normalized_select_variables_matches_fresh_normalization() {
        let d = DataMatrix::from_rows(
            names("o", 4),
            vec!["a".into(), "b".into(), "c".into()],
            &[
                &[1.0, 9.0, 2.0],
                &[2.0, 7.0, 8.0],
                &[3.0, 8.0, 5.0],
                &[4.0, 1.0, 3.0],
            ],
        );
        let z = d.normalize(Imputation::Forbid).unwrap();
        let subset = z.select_variables(&[2, 0]);
        let fresh = d
            .select_variables_by_name(&["c", "a"])
            .unwrap()
            .normalize(Imputation::Forbid)
            .unwrap();
        assert_eq!(subset, fresh);
    }

    #[test]
    fn overflowing_columns_are_non_finite_errors() {
        // Finite, non-constant columns: the first overflows only the
        // standard deviation, the second the mean as well.
        for column in [[2e154, -2e154, 0.0, 1.0], [1e308, 1e308, -1e308, 5.0]] {
            let d = DataMatrix::from_rows(
                names("o", 4),
                vec!["ok".into(), "big".into()],
                &[
                    &[1.0, column[0]],
                    &[2.0, column[1]],
                    &[4.0, column[2]],
                    &[3.0, column[3]],
                ],
            );
            match d.normalize(Imputation::Forbid) {
                Err(CoplotError::NonFinite(msg)) => assert!(msg.contains("\"big\""), "{msg}"),
                other => panic!("{column:?}: expected NonFinite, got {other:?}"),
            }
        }
    }

    #[test]
    fn too_few_observations_rejected() {
        let d = DataMatrix::from_rows(names("o", 2), names("v", 1), &[&[1.0], &[2.0]]);
        assert!(d.normalize(Imputation::Forbid).is_err());
    }

    #[test]
    fn select_variables_by_name() {
        let d = DataMatrix::from_rows(
            names("o", 3),
            vec!["a".into(), "b".into(), "c".into()],
            &[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]],
        );
        let s = d.select_variables_by_name(&["c", "a"]).unwrap();
        assert_eq!(s.variables(), &["c".to_string(), "a".to_string()]);
        assert_eq!(s.get(1, 0), Some(6.0));
        assert_eq!(s.get(1, 1), Some(4.0));
        assert!(d.select_variables_by_name(&["zzz"]).is_err());
    }

    #[test]
    fn drop_observations_by_name() {
        let d = DataMatrix::from_rows(
            vec!["x".into(), "y".into(), "z".into()],
            names("v", 1),
            &[&[1.0], &[2.0], &[3.0]],
        );
        let s = d.drop_observations_by_name(&["y"]).unwrap();
        assert_eq!(s.observations(), &["x".to_string(), "z".to_string()]);
        assert_eq!(s.get(1, 0), Some(3.0));
        assert!(d.drop_observations_by_name(&["nope"]).is_err());
    }

    #[test]
    fn row_and_column_views_consistent() {
        let d = DataMatrix::from_rows(
            names("o", 3),
            names("v", 2),
            &[&[1.0, 10.0], &[2.0, 30.0], &[3.0, 20.0]],
        );
        let z = d.normalize(Imputation::Forbid).unwrap();
        for i in 0..3 {
            for v in 0..2 {
                assert_eq!(z.row(i)[v], z.column(v)[i]);
            }
        }
    }
}

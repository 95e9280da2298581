//! Result analysis: multi-objective Pareto frontiers and one-at-a-time
//! (tornado) sensitivity.
//!
//! Both analyses are pure functions over the evaluated objective vectors,
//! so they are trivially deterministic; the frontier is defined purely by
//! dominance, which makes it invariant under any reordering of the
//! sampled points.

use crate::space::{Point, Space};

/// The optimization direction of one objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Bigger is better (throughput).
    Maximize,
    /// Smaller is better (exposed time, overhead).
    Minimize,
}

impl Sense {
    /// Whether `a` is strictly better than `b` under this sense.
    fn better(self, a: f64, b: f64) -> bool {
        match self {
            Sense::Maximize => a > b,
            Sense::Minimize => a < b,
        }
    }
}

/// Whether objective vector `a` Pareto-dominates `b`: at least as good
/// in every objective and strictly better in at least one.
///
/// # Panics
///
/// Panics if the vector lengths and the sense count disagree.
pub fn dominates(a: &[f64], b: &[f64], senses: &[Sense]) -> bool {
    assert!(
        a.len() == senses.len() && b.len() == senses.len(),
        "objective arity mismatch: {} vs {} vs {} senses",
        a.len(),
        b.len(),
        senses.len()
    );
    let mut strictly = false;
    for ((&x, &y), &sense) in a.iter().zip(b).zip(senses) {
        if sense.better(y, x) {
            return false;
        }
        if sense.better(x, y) {
            strictly = true;
        }
    }
    strictly
}

/// Indices (ascending) of the non-dominated points among `objectives`.
///
/// Duplicated objective vectors do not dominate each other, so exact
/// ties all stay on the frontier — which is what keeps the frontier
/// invariant under point-order shuffles.
///
/// # Example
///
/// ```
/// use tee_explore::{pareto_frontier, Sense};
/// let objs = vec![
///     vec![10.0, 1.0], // fast but exposed
///     vec![5.0, 0.1],  // slower, well hidden
///     vec![4.0, 0.5],  // dominated by both? no — only by index 1
/// ];
/// let senses = [Sense::Maximize, Sense::Minimize];
/// assert_eq!(pareto_frontier(&objs, &senses), vec![0, 1]);
/// ```
pub fn pareto_frontier(objectives: &[Vec<f64>], senses: &[Sense]) -> Vec<usize> {
    (0..objectives.len())
        .filter(|&i| {
            objectives
                .iter()
                .all(|other| !dominates(other, &objectives[i], senses))
        })
        .collect()
}

/// For a dominated point, an index of some point dominating it (the
/// first in point order); `None` when the point is on the frontier.
pub fn dominator_of(i: usize, objectives: &[Vec<f64>], senses: &[Sense]) -> Option<usize> {
    objectives
        .iter()
        .position(|other| dominates(other, &objectives[i], senses))
}

/// One bar of a tornado chart: the swing a single knob induces on an
/// objective while every other knob is held at the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct TornadoRow {
    /// The knob.
    pub knob: &'static str,
    /// The smallest objective value over the knob's levels.
    pub low: f64,
    /// The level label achieving `low`.
    pub low_label: String,
    /// The largest objective value over the knob's levels.
    pub high: f64,
    /// The level label achieving `high`.
    pub high_label: String,
}

impl TornadoRow {
    /// The absolute swing (`high − low`).
    pub fn swing(&self) -> f64 {
        self.high - self.low
    }

    /// The swing relative to the baseline value (0 when the baseline is
    /// 0).
    pub fn swing_vs(&self, baseline: f64) -> f64 {
        if baseline == 0.0 {
            0.0
        } else {
            self.swing() / baseline.abs()
        }
    }
}

/// Computes the tornado rows from a one-at-a-time sweep: `points` must
/// be [`Space::one_at_a_time`] output (baseline first) and `values` the
/// objective value per point, aligned. Rows come back sorted by
/// descending swing (ties keep knob order).
///
/// # Panics
///
/// Panics if `points` and `values` lengths differ or `points` is empty.
pub fn tornado(space: &Space, points: &[Point], values: &[f64]) -> Vec<TornadoRow> {
    assert_eq!(points.len(), values.len(), "one value per point");
    assert!(!points.is_empty(), "need at least the baseline point");
    let baseline = &points[0];
    let mut rows: Vec<TornadoRow> = space
        .knobs()
        .iter()
        .enumerate()
        .map(|(k, knob)| {
            // The knob's own column of the sweep: the baseline plus every
            // point differing from it only at knob k.
            let column = points.iter().zip(values).filter(|(p, _)| {
                p.levels()
                    .iter()
                    .zip(baseline.levels())
                    .enumerate()
                    .all(|(j, (a, b))| j == k || a == b)
            });
            let mut low: Option<(f64, &Point)> = None;
            let mut high: Option<(f64, &Point)> = None;
            for (p, &v) in column {
                if low.is_none_or(|(lv, _)| v < lv) {
                    low = Some((v, p));
                }
                if high.is_none_or(|(hv, _)| v > hv) {
                    high = Some((v, p));
                }
            }
            let (low, low_p) = low.expect("baseline always in column");
            let (high, high_p) = high.expect("baseline always in column");
            TornadoRow {
                knob: knob.name,
                low,
                low_label: space.label(low_p, k).to_string(),
                high,
                high_label: space.label(high_p, k).to_string(),
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.swing()
            .partial_cmp(&a.swing())
            .expect("finite objective values")
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Knob;

    const MAX_MIN: [Sense; 2] = [Sense::Maximize, Sense::Minimize];

    #[test]
    fn dominance_requires_strictness() {
        assert!(dominates(&[2.0, 1.0], &[1.0, 1.0], &MAX_MIN));
        assert!(dominates(&[1.0, 0.5], &[1.0, 1.0], &MAX_MIN));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0], &MAX_MIN), "ties");
        assert!(!dominates(&[2.0, 2.0], &[1.0, 1.0], &MAX_MIN), "trade-off");
        assert!(!dominates(&[1.0, 1.0], &[2.0, 1.0], &MAX_MIN));
    }

    #[test]
    fn frontier_drops_dominated_keeps_ties() {
        let objs = vec![
            vec![10.0, 5.0],
            vec![10.0, 5.0], // exact duplicate stays
            vec![9.0, 6.0],  // dominated by 0
            vec![12.0, 9.0], // trade-off: faster but more exposed
        ];
        assert_eq!(pareto_frontier(&objs, &MAX_MIN), vec![0, 1, 3]);
        assert_eq!(dominator_of(2, &objs, &MAX_MIN), Some(0));
        assert_eq!(dominator_of(0, &objs, &MAX_MIN), None);
    }

    #[test]
    fn frontier_of_empty_and_single() {
        assert!(pareto_frontier(&[], &MAX_MIN).is_empty());
        assert_eq!(pareto_frontier(&[vec![1.0, 1.0]], &MAX_MIN), vec![0]);
    }

    #[test]
    fn tornado_ranks_knobs_by_swing() {
        let space = Space::new(vec![
            Knob::numeric("minor", [1.0, 2.0]),
            Knob::numeric("major", [1.0, 2.0, 3.0]),
        ]);
        let baseline = space.center(); // levels [1, 1]
        let points = space.one_at_a_time(&baseline);
        // Objective: minor contributes ±1, major contributes ±10.
        let values: Vec<f64> = points
            .iter()
            .map(|p| space.value(p, 0) + 10.0 * space.value(p, 1))
            .collect();
        let rows = tornado(&space, &points, &values);
        assert_eq!(rows[0].knob, "major");
        assert_eq!(rows[0].swing(), 20.0);
        assert_eq!(rows[0].low_label, "1");
        assert_eq!(rows[0].high_label, "3");
        assert_eq!(rows[1].knob, "minor");
        assert_eq!(rows[1].swing(), 1.0);
        let base_value = values[0];
        assert!(rows[0].swing_vs(base_value) > rows[1].swing_vs(base_value));
        assert_eq!(rows[0].swing_vs(0.0), 0.0);
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        dominates(&[1.0], &[1.0, 2.0], &MAX_MIN);
    }
}

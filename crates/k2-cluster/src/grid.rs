//! Shared geometry of the uniform clustering grid: the distance kernel
//! of the 3×3 probe and the self-tuning CSR extent that
//! [`GridState`](crate::GridState) is built over.
//!
//! The grid's dense layout is a counting-sort compressed-sparse-row (CSR)
//! array over the snapshot's bounding box: cell regions grouped by
//! row-major cell id, so a 3×3 neighbourhood probe reads three contiguous
//! slot ranges (one per grid row). When no dense geometry exists at all —
//! non-finite coordinates, or an aspect ratio so extreme that even
//! density-derived cells blow the cell budget — [`csr_extent`] returns
//! `None` and the grid falls back to a sparse `HashMap` of cells.
//!
//! The CSR cell side self-tunes in two regimes: metric-scale extents use
//! the extent-to-eps ratio directly (cell = eps, mildly coarsened), and
//! geo-scale extents — lat/lon degrees mined with paper-range eps values
//! around `1e-5`, where that ratio reaches the millions — derive the cell
//! side from snapshot point *density* over a percentile-clipped bounding
//! box, with outliers clamped into the border cells.

use k2_model::ObjPos;

/// Appends every candidate within distance `sqrt(eps2)` of `q` to `out` —
/// the distance filter of the 3×3 probe, manually vectorized.
///
/// `candidates` are indices into `points`. The loop is a chunked,
/// dependency-free f64x4-style kernel: four squared distances are computed
/// per iteration into a small lane buffer (no lane depends on another, so
/// the compiler is free to keep all four in vector registers), and the
/// pass/fail decision branches **once per chunk** — in the common case of
/// a chunk with no neighbour, the per-lane pushes are never reached. The
/// remainder (1–3 trailing candidates) falls back to the scalar filter.
///
/// Per-lane arithmetic is exactly [`ObjPos::dist2`]`(q) <= eps2`, so the
/// appended *set* is bit-identical to the scalar loop it replaces; only
/// the instruction schedule changes. NaN coordinates compare false and
/// are skipped, matching the scalar behaviour.
#[inline]
pub fn dist2_filter_chunked(
    points: &[ObjPos],
    candidates: &[u32],
    q: &ObjPos,
    eps2: f64,
    out: &mut Vec<u32>,
) {
    let mut chunks = candidates.chunks_exact(4);
    for c in &mut chunks {
        let d = [
            points[c[0] as usize].dist2(q),
            points[c[1] as usize].dist2(q),
            points[c[2] as usize].dist2(q),
            points[c[3] as usize].dist2(q),
        ];
        // Non-short-circuiting `|` keeps this a single branch per chunk.
        if (d[0] <= eps2) | (d[1] <= eps2) | (d[2] <= eps2) | (d[3] <= eps2) {
            for (lane, &j) in c.iter().enumerate() {
                if d[lane] <= eps2 {
                    out.push(j);
                }
            }
        }
    }
    for &j in chunks.remainder() {
        if points[j as usize].dist2(q) <= eps2 {
            out.push(j);
        }
    }
}

/// Target CSR occupancy: aim for about this many cells per point. Any
/// cell side `>= eps` preserves the 3×3 neighbourhood guarantee, so when
/// the eps-sized grid would be much sparser than this the cell side is
/// scaled up — zero-filling a hundred empty cells per point costs more
/// than filtering a couple of extra distance candidates.
const CSR_TARGET_CELLS_PER_POINT: usize = 4;
/// Floor on the occupancy target for small snapshots. Every build and
/// every incremental re-scatter pays `O(cells)` passes, so a floor much
/// larger than the snapshot (the old value was a flat 1024 cells even
/// for a 60-point snapshot) makes the cell-array passes dominate the
/// point work; 256 keeps tiny grids fine-grained enough to probe well
/// while letting their build cost stay proportional to `n`.
const CSR_MIN_TARGET_CELLS: usize = 256;
/// Up to this scale factor over `eps` the cell side comes straight from
/// the extent-to-eps ratio (the cheap path: no percentile pass). Beyond
/// it the extent dwarfs eps — lat/lon data mined with degree-scale eps,
/// or an outlier-stretched bounding box — and the cell side is instead
/// derived from snapshot point *density* over a percentile-clipped
/// bounding box (see [`density_extent`]), so geo-scale snapshots stay on
/// the CSR layout instead of falling back to the `HashMap`.
const CSR_MAX_CELL_SCALE: f64 = 8.0;
/// Percentile clipped off each side of the coordinate distribution when
/// the density path sizes its bounding box (2% per tail): a handful of
/// GPS glitches must not inflate the box that every regular point is
/// gridded into. Points outside the clipped box clamp to the border
/// cells, which keeps the 3×3 guarantee (clamping is 1-Lipschitz, so two
/// points within eps land within one cell index of each other).
const CSR_CLIP_PER_MILLE: usize = 20;
/// Densest CSR grid we allow after scaling, as a multiple of the point
/// count. Beyond this the zero-fill of `offsets` would dominate the
/// build, so the sparse fallback wins.
const CSR_MAX_CELLS_PER_POINT: usize = 192;
/// Grids up to this many cells are always allowed (the multipliers above
/// only bite for large point sets).
const CSR_MIN_CELL_BUDGET: usize = 1 << 16;
/// Absolute ceiling on dense cells (bounds `offsets` to ~64 MiB).
const CSR_ABS_MAX_CELLS: usize = 1 << 24;

/// Bounding-box geometry of a CSR build. `cell` is the chosen cell side —
/// `eps`, a bounded multiple of it (extent path), or a density-derived
/// side (geo path); always `>= eps`, which is all the 3×3 probe needs.
pub(crate) struct CsrExtent {
    pub(crate) min_x: f64,
    pub(crate) min_y: f64,
    pub(crate) cols: usize,
    pub(crate) rows: usize,
    pub(crate) cell: f64,
}

/// Grid geometry for a box of `span_x × span_y` at cell side `cell`, or
/// `None` when the dense `offsets` array would overflow the absolute cap.
fn grid_dims(span_x: f64, span_y: f64, cell: f64) -> Option<(usize, usize, usize)> {
    let span_cols = span_x / cell;
    let span_rows = span_y / cell;
    // Bail out before the usize casts can overflow or saturate.
    if !(span_cols.is_finite() && span_rows.is_finite())
        || span_cols >= CSR_ABS_MAX_CELLS as f64
        || span_rows >= CSR_ABS_MAX_CELLS as f64
    {
        return None;
    }
    let cols = span_cols as usize + 1;
    let rows = span_rows as usize + 1;
    let cells = cols.checked_mul(rows)?;
    Some((cols, rows, cells))
}

/// The CSR geometry for `points` at `eps`, or `None` when the sparse
/// fallback must be used. `percentiles` is reusable scratch for the
/// density path.
pub(crate) fn csr_extent(
    points: &[ObjPos],
    eps: f64,
    percentiles: &mut Vec<f64>,
) -> Option<CsrExtent> {
    let first = points.first()?;
    let (mut min_x, mut max_x) = (first.x, first.x);
    let (mut min_y, mut max_y) = (first.y, first.y);
    for p in points {
        // f64::min/max ignore NaN operands, so non-finite coordinates must
        // be rejected explicitly (they have no cell).
        if !(p.x.is_finite() && p.y.is_finite()) {
            return None;
        }
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
    }
    let target = CSR_MIN_TARGET_CELLS.max(points.len().saturating_mul(CSR_TARGET_CELLS_PER_POINT));
    let budget = CSR_MIN_CELL_BUDGET
        .max(points.len().saturating_mul(CSR_MAX_CELLS_PER_POINT))
        .min(CSR_ABS_MAX_CELLS);

    // Extent path: cell side straight from the extent-to-eps ratio, full
    // bounding box, no percentile pass. Covers metric-scale snapshots.
    // Every acceptance checks the budget too: for huge point sets the
    // occupancy target (4n) exceeds the absolute cell cap, and an
    // unchecked `cells <= target` grid could overflow the u32 cell ids.
    let full = |cell: f64| grid_dims(max_x - min_x, max_y - min_y, cell);
    if let Some((cols, rows, cells)) = full(eps) {
        if cells <= target && cells <= budget {
            return Some(CsrExtent {
                min_x,
                min_y,
                cols,
                rows,
                cell: eps,
            });
        }
        // Sparser than the target: coarsen the cell side (correctness is
        // unaffected — any side >= eps keeps eps-neighbours within the
        // 3×3 block) so `offsets` stays proportional to n. Clamped to
        // >= 1: the budget-exceeded fall-through can arrive here with
        // cells <= target, and a sub-eps cell would break the 3×3 probe.
        let scale = (cells as f64 / target as f64).sqrt().max(1.0);
        if scale <= CSR_MAX_CELL_SCALE {
            if let Some((cols, rows, cells)) = full(eps * scale) {
                if cells <= budget {
                    return Some(CsrExtent {
                        min_x,
                        min_y,
                        cols,
                        rows,
                        cell: eps * scale,
                    });
                }
            }
        }
    }
    // The extent dwarfs eps (lat/lon-scale coordinates, or a box
    // stretched by outliers): size the grid from point density instead.
    density_extent(points, eps, target, budget, percentiles)
}

/// The geo-scale sizing path: derive the cell side from snapshot point
/// *density* — pick the side so the percentile-clipped bounding box holds
/// about `target` cells regardless of how extreme the extent-to-eps ratio
/// is. This is what keeps Trucks/T-Drive-shaped data (degree coordinates,
/// eps of `1e-5`-ish degrees) on the CSR layout; before it, any snapshot
/// whose extent exceeded `8 × eps × budget` silently fell back to the
/// `HashMap`. Points outside the clipped box clamp into the border cells
/// (see `GridState::rebuild_csr`), which preserves the 3×3 probe
/// guarantee.
fn density_extent(
    points: &[ObjPos],
    eps: f64,
    target: usize,
    budget: usize,
    percentiles: &mut Vec<f64>,
) -> Option<CsrExtent> {
    let clipped_span = |coords: &mut Vec<f64>| -> (f64, f64) {
        let n = coords.len();
        let lo_i = n * CSR_CLIP_PER_MILLE / 1000;
        let hi_i = n - 1 - lo_i;
        coords.select_nth_unstable_by(lo_i, f64::total_cmp);
        let lo = coords[lo_i];
        coords.select_nth_unstable_by(hi_i, f64::total_cmp);
        (lo, coords[hi_i])
    };
    percentiles.clear();
    percentiles.extend(points.iter().map(|p| p.x));
    let (x_lo, x_hi) = clipped_span(percentiles);
    percentiles.clear();
    percentiles.extend(points.iter().map(|p| p.y));
    let (y_lo, y_hi) = clipped_span(percentiles);

    let (span_x, span_y) = (x_hi - x_lo, y_hi - y_lo);
    let mut cell = if span_x > 0.0 && span_y > 0.0 {
        (span_x * span_y / target as f64).sqrt()
    } else {
        // Degenerate (collinear or near-coincident) distribution: one
        // row/column of cells along the longer axis.
        span_x.max(span_y) / target as f64
    };
    cell = cell.max(eps);
    // Area-based sizing assumes a square-ish box; extreme aspect ratios
    // (or a zero-area axis) can still overshoot, so coarsen until the
    // geometry fits the budget — a couple of rounds or the sparse layout
    // takes over.
    for _ in 0..3 {
        match grid_dims(span_x, span_y, cell) {
            Some((cols, rows, cells)) if cells <= budget => {
                return Some(CsrExtent {
                    min_x: x_lo,
                    min_y: y_lo,
                    cols,
                    rows,
                    cell,
                });
            }
            Some((_, _, cells)) => cell *= (cells as f64 / target as f64).sqrt().max(2.0),
            None => cell *= CSR_ABS_MAX_CELLS as f64,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use crate::GridState;
    use k2_model::ObjPos;

    fn build(points: &[ObjPos], eps: f64) -> GridState {
        let mut grid = GridState::new();
        grid.update(points, eps);
        grid
    }

    fn sorted_neighbours(grid: &GridState, points: &[ObjPos], idx: usize, eps2: f64) -> Vec<u32> {
        let mut out = Vec::new();
        grid.neighbours(points, idx, eps2, &mut out);
        out.sort_unstable();
        out
    }

    fn brute(points: &[ObjPos], idx: usize, eps2: f64) -> Vec<u32> {
        let p = &points[idx];
        let mut v: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, q)| q.dist2(p) <= eps2)
            .map(|(i, _)| i as u32)
            .collect();
        v.sort_unstable();
        v
    }

    /// Both layouts answer every neighbourhood exactly: the grid over
    /// `points`, and the grid over `points` plus one non-finite point
    /// (which has no cell, so it forces the sparse fallback).
    fn assert_matches_brute(points: &[ObjPos], eps: f64) {
        let mut with_nan = points.to_vec();
        with_nan.push(ObjPos::new(u32::MAX, f64::NAN, 0.0));
        let sparse = build(&with_nan, eps);
        assert!(!sparse.is_csr());
        let grid = build(points, eps);
        for idx in 0..points.len() {
            let want = brute(points, idx, eps * eps);
            assert_eq!(
                sorted_neighbours(&grid, points, idx, eps * eps),
                want,
                "idx {idx}"
            );
            let got = sorted_neighbours(&sparse, &with_nan, idx, eps * eps);
            assert_eq!(got, want, "sparse idx {idx}");
        }
    }

    #[test]
    fn matches_brute_force_on_a_lattice() {
        let mut points = Vec::new();
        let mut oid = 0;
        for i in 0..10 {
            for j in 0..10 {
                points.push(ObjPos::new(oid, i as f64 * 0.7, j as f64 * 0.7));
                oid += 1;
            }
        }
        assert_matches_brute(&points, 1.0);
    }

    #[test]
    fn includes_self_and_exact_boundary() {
        let points = vec![ObjPos::new(0, 0.0, 0.0), ObjPos::new(1, 1.0, 0.0)];
        let grid = build(&points, 1.0);
        assert_eq!(sorted_neighbours(&grid, &points, 0, 1.0), vec![0, 1]);
    }

    #[test]
    fn negative_coordinates() {
        let points = vec![
            ObjPos::new(0, -0.5, -0.5),
            ObjPos::new(1, 0.4, 0.4),
            ObjPos::new(2, -5.0, -5.0),
        ];
        let grid = build(&points, 2.0);
        assert_eq!(sorted_neighbours(&grid, &points, 0, 4.0), vec![0, 1]);
        assert_matches_brute(&points, 2.0);
    }

    #[test]
    fn far_apart_cells_stay_separate() {
        let points = vec![
            ObjPos::new(0, 0.1, 0.1),
            ObjPos::new(1, 0.2, 0.2),
            ObjPos::new(2, 10.0, 10.0),
        ];
        assert_matches_brute(&points, 1.0);
    }

    #[test]
    fn rebuild_reuses_buffers_across_extents() {
        let mut grid = GridState::new();
        let a = vec![ObjPos::new(0, 0.0, 0.0), ObjPos::new(1, 0.5, 0.5)];
        grid.update(&a, 1.0);
        assert!(grid.is_csr());
        assert_eq!(sorted_neighbours(&grid, &a, 0, 1.0).len(), 2);

        // Re-update over a different, bigger cloud: results must match
        // brute force.
        let b: Vec<ObjPos> = (0..50)
            .map(|i| ObjPos::new(i, (i % 7) as f64 * 0.9, (i / 7) as f64 * 0.9 - 3.0))
            .collect();
        grid.update(&b, 1.0);
        for idx in 0..b.len() {
            assert_eq!(
                sorted_neighbours(&grid, &b, idx, 1.0),
                brute(&b, idx, 1.0),
                "idx {idx}"
            );
        }
    }

    #[test]
    fn huge_extent_uses_density_cells_and_stays_csr() {
        // Two points astronomically far apart: an eps-sized grid would
        // need ~1e24 cells. The density path sizes cells from the point
        // distribution instead, so the CSR layout survives — and still
        // answers correctly.
        let points = vec![
            ObjPos::new(0, 0.0, 0.0),
            ObjPos::new(1, 0.5, 0.0),
            ObjPos::new(2, 1.0e12, 1.0e12),
        ];
        let grid = build(&points, 1.0);
        assert!(grid.is_csr());
        assert!(grid.cell_side() >= 1.0);
        assert_eq!(sorted_neighbours(&grid, &points, 0, 1.0), vec![0, 1]);
        assert_matches_brute(&points, 1.0);
    }

    /// Deterministic pseudo-random f64 in [0, 1) (no rand dependency).
    fn unit(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn trucks_extent_with_latlon_eps_selects_csr() {
        // Athens-shaped Trucks extents (degrees: ~0.5° × 0.35°) mined at a
        // paper-range eps of 2e-5 degrees: the extent-to-eps ratio is
        // ~25 000 per axis, far past the 8× coarsening cap of the extent
        // path. The density path must keep this on CSR and stay exact.
        let mut state = 0x5eed;
        let points: Vec<ObjPos> = (0..300)
            .map(|i| {
                ObjPos::new(
                    i,
                    23.5 + unit(&mut state) * 0.5,
                    37.85 + unit(&mut state) * 0.35,
                )
            })
            .collect();
        let eps = 2.0e-5;
        let grid = build(&points, eps);
        assert!(grid.is_csr(), "lat/lon-scale eps must stay on CSR");
        assert!(grid.cell_side() >= eps);
        assert_matches_brute(&points, eps);
        // A genuinely co-located platoon must still resolve: pin three
        // points within eps and check their mutual neighbourhood.
        let mut platoon = points.clone();
        platoon.extend([
            ObjPos::new(900, 23.7, 38.0),
            ObjPos::new(901, 23.7 + 1.0e-5, 38.0),
            ObjPos::new(902, 23.7, 38.0 + 1.0e-5),
        ]);
        let grid = build(&platoon, eps);
        assert!(grid.is_csr());
        let out = sorted_neighbours(&grid, &platoon, 300, eps * eps);
        assert!(out.contains(&301) && out.contains(&302));
    }

    #[test]
    fn outlier_stretched_tdrive_extent_clips_and_stays_csr() {
        // Beijing-shaped taxi cloud plus a few GPS glitches hundreds of
        // degrees away: the percentile clip must keep the grid sized to
        // the city, the glitches clamp into border cells, and *all*
        // neighbourhoods — including between two co-located glitches —
        // stay exact.
        let mut state = 0xbe111u64 ^ 0xffff;
        let mut points: Vec<ObjPos> = (0..400)
            .map(|i| {
                ObjPos::new(
                    i,
                    116.20 + unit(&mut state) * 0.40,
                    39.80 + unit(&mut state) * 0.30,
                )
            })
            .collect();
        points.push(ObjPos::new(900, 480.0, 220.0));
        points.push(ObjPos::new(901, 480.0 + 5.0e-5, 220.0)); // within eps of 900
        points.push(ObjPos::new(902, -310.0, -85.0));
        let eps = 1.0e-4;
        let grid = build(&points, eps);
        assert!(grid.is_csr(), "outlier-stretched extent must stay on CSR");
        assert_matches_brute(&points, eps);
    }

    #[test]
    fn collinear_points_on_a_vast_line_stay_exact() {
        // Degenerate extent: every point on one horizontal line spanning
        // 1e6 units with eps = 0.5 (zero-area bounding box). The density
        // path must produce a single-row grid (or an otherwise valid
        // layout) without panicking, and answer exactly.
        let points: Vec<ObjPos> = (0..200)
            .map(|i| ObjPos::new(i, (i as f64) * 5050.0, 42.0))
            .collect();
        let grid = build(&points, 0.5);
        assert!(grid.is_csr());
        assert_matches_brute(&points, 0.5);
        // And with a dense cluster on the same line, neighbours resolve.
        let mut with_cluster = points.clone();
        with_cluster.extend((0..5).map(|i| ObjPos::new(500 + i, 1000.25 + i as f64 * 0.1, 42.0)));
        assert_matches_brute(&with_cluster, 0.5);
    }

    #[test]
    fn all_points_coincident_degenerate_box() {
        // Zero-span box in both axes exercises the density path's
        // degenerate branch (cell = eps, 1×1 grid).
        let points: Vec<ObjPos> = (0..40).map(|i| ObjPos::new(i, 7.25, -3.5)).collect();
        let grid = build(&points, 1.0e-9);
        assert!(grid.is_csr());
        assert_eq!(sorted_neighbours(&grid, &points, 0, 0.0).len(), 40);
    }

    #[test]
    fn non_finite_coordinates_fall_back_to_sparse() {
        let points = vec![
            ObjPos::new(0, 0.0, 0.0),
            ObjPos::new(1, 0.5, 0.0),
            ObjPos::new(2, f64::NAN, 3.0),
        ];
        let grid = build(&points, 1.0);
        assert!(!grid.is_csr());
        assert_eq!(sorted_neighbours(&grid, &points, 0, 1.0), vec![0, 1]);
    }

    #[test]
    fn coincident_points_share_a_cell() {
        let points = vec![
            ObjPos::new(0, 2.5, 2.5),
            ObjPos::new(1, 2.5, 2.5),
            ObjPos::new(2, 2.5, 2.5),
        ];
        assert_matches_brute(&points, 0.1);
    }

    #[test]
    fn single_point_grid() {
        let points = vec![ObjPos::new(7, -3.25, 9.75)];
        let grid = build(&points, 2.0);
        assert!(grid.is_csr());
        assert_eq!(sorted_neighbours(&grid, &points, 0, 4.0), vec![0]);
    }

    #[test]
    fn empty_point_set_is_fine() {
        let grid = build(&[], 1.0);
        assert!(!grid.is_csr(), "no extent: no CSR layout");
    }
}

use privlocad_geo::Point;
use serde::{Deserialize, Serialize};

/// A deterministic administrative-area model: the plane is divided into
/// square cells and each cell is an "area" with a stable 32-bit id.
///
/// Real platforms resolve area targeting against city/district polygons;
/// a uniform grid preserves what matters for the privacy analysis — a
/// coarse, many-to-one mapping from coordinates to a targeting key — while
/// staying fully deterministic. Cells of 10 km side approximate district
/// granularity in the study area.
///
/// # Examples
///
/// ```
/// use privlocad_adnet::AreaGrid;
/// use privlocad_geo::Point;
///
/// let grid = AreaGrid::new(10_000.0);
/// let a = grid.area_of(Point::new(1_000.0, 1_000.0));
/// let b = grid.area_of(Point::new(9_000.0, 9_000.0));
/// let c = grid.area_of(Point::new(11_000.0, 1_000.0));
/// assert_eq!(a, b); // same 10 km cell
/// assert_ne!(a, c); // next cell east
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaGrid {
    cell_size_m: f64,
}

impl AreaGrid {
    /// Creates a grid with square cells of the given side length.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size_m` is not positive and finite.
    pub fn new(cell_size_m: f64) -> Self {
        assert!(
            cell_size_m.is_finite() && cell_size_m > 0.0,
            "cell size must be positive and finite"
        );
        AreaGrid { cell_size_m }
    }

    /// The area id containing `p`.
    ///
    /// Ids are collision-free for cell coordinates within ±32,767 of the
    /// origin — over 300,000 km at 10 km cells, far beyond any study area.
    pub fn area_of(&self, p: Point) -> u32 {
        let cx = (p.x / self.cell_size_m).floor() as i64 + 0x8000;
        let cy = (p.y / self.cell_size_m).floor() as i64 + 0x8000;
        ((cx as u32 & 0xFFFF) << 16) | (cy as u32 & 0xFFFF)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_in_one_cell_share_an_id() {
        let g = AreaGrid::new(1_000.0);
        let base = g.area_of(Point::new(0.0, 0.0));
        assert_eq!(g.area_of(Point::new(999.0, 999.0)), base);
        assert_eq!(g.area_of(Point::new(0.0, 500.0)), base);
    }

    #[test]
    fn adjacent_cells_differ() {
        let g = AreaGrid::new(1_000.0);
        let base = g.area_of(Point::new(500.0, 500.0));
        assert_ne!(g.area_of(Point::new(1_500.0, 500.0)), base);
        assert_ne!(g.area_of(Point::new(500.0, 1_500.0)), base);
        assert_ne!(g.area_of(Point::new(-500.0, 500.0)), base);
    }

    #[test]
    fn ids_stable_across_calls() {
        let g = AreaGrid::new(10_000.0);
        let p = Point::new(-123_456.0, 78_910.0);
        assert_eq!(g.area_of(p), g.area_of(p));
    }

    #[test]
    fn city_scale_ids_are_distinct() {
        // Every cell of a 100 km × 100 km city grid gets its own id.
        let g = AreaGrid::new(10_000.0);
        let mut ids = std::collections::HashSet::new();
        for i in -5..5 {
            for j in -5..5 {
                ids.insert(g.area_of(Point::new(
                    i as f64 * 10_000.0 + 5_000.0,
                    j as f64 * 10_000.0 + 5_000.0,
                )));
            }
        }
        assert_eq!(ids.len(), 100);
    }

    #[test]
    #[should_panic(expected = "cell size")]
    fn rejects_bad_cell_size() {
        let _ = AreaGrid::new(0.0);
    }
}

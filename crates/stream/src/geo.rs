//! Geographic model: a 2-D cell grid over [`LocationId`]s.
//!
//! The flat `LocationId` space the rest of the system uses is given
//! geometry here: cells form a `width × height` grid (city-block
//! granularity), distances are Euclidean in cell units, and radius
//! queries expand a center cell into the set of nearby cells — which is
//! exactly what radius-targeted campaigns feed into
//! `Targeting::in_locations`.
//!
//! [`CityModel`] clusters users' home cells around a few city centers
//! (Box–Muller Gaussians — no `rand_distr` offline), replacing the
//! uniform home-cell assignment for geo experiments.

use rand::Rng;

use crate::event::LocationId;

/// A rectangular grid of location cells, row-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeoGrid {
    width: u16,
    height: u16,
}

impl GeoGrid {
    /// A `width × height` grid.
    ///
    /// # Panics
    ///
    /// Panics on empty grids or grids exceeding the `u16` cell-id space.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "empty grid");
        assert!(
            (width as u32) * (height as u32) <= u16::MAX as u32 + 1,
            "grid exceeds the LocationId space"
        );
        GeoGrid { width, height }
    }

    /// Grid width in cells.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Grid height in cells.
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// The cell at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn cell(&self, x: u16, y: u16) -> LocationId {
        assert!(
            x < self.width && y < self.height,
            "({x},{y}) outside {self:?}"
        );
        LocationId(y * self.width + x)
    }

    /// The `(x, y)` coordinates of a cell.
    pub fn coords(&self, cell: LocationId) -> (u16, u16) {
        debug_assert!(
            (cell.0 as usize) < self.num_cells(),
            "{cell:?} outside {self:?}"
        );
        (cell.0 % self.width, cell.0 / self.width)
    }

    /// Euclidean distance between cell centers, in cell units.
    pub fn distance(&self, a: LocationId, b: LocationId) -> f64 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        let dx = f64::from(ax) - f64::from(bx);
        let dy = f64::from(ay) - f64::from(by);
        (dx * dx + dy * dy).sqrt()
    }

    /// All cells within `radius` (inclusive) of `center`, sorted by id.
    pub fn cells_within(&self, center: LocationId, radius: f64) -> Vec<LocationId> {
        assert!(radius >= 0.0, "negative radius");
        let (cx, cy) = self.coords(center);
        let r = radius.ceil() as i32;
        let mut out = Vec::new();
        for dy in -r..=r {
            for dx in -r..=r {
                let x = cx as i32 + dx;
                let y = cy as i32 + dy;
                if x < 0 || y < 0 || x >= self.width as i32 || y >= self.height as i32 {
                    continue;
                }
                let cell = self.cell(x as u16, y as u16);
                if self.distance(center, cell) <= radius {
                    out.push(cell);
                }
            }
        }
        out
    }
}

/// Users' homes clustered around city centers.
#[derive(Debug, Clone)]
pub struct CityModel {
    grid: GeoGrid,
    /// `(x, y, spread)` per city, in cell units.
    cities: Vec<(f64, f64, f64)>,
    /// Relative population weight per city (normalized on construction).
    weights: Vec<f64>,
}

impl CityModel {
    /// Cities at the given centers with Gaussian spread and population
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics on an empty city list or non-positive spreads/weights.
    pub fn new(grid: GeoGrid, cities: Vec<(f64, f64, f64)>, weights: Vec<f64>) -> Self {
        assert!(!cities.is_empty(), "need at least one city");
        assert_eq!(cities.len(), weights.len(), "one weight per city");
        assert!(
            cities.iter().all(|&(_, _, s)| s > 0.0),
            "spreads must be positive"
        );
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        let total: f64 = weights.iter().sum();
        let weights = weights.into_iter().map(|w| w / total).collect();
        CityModel {
            grid,
            cities,
            weights,
        }
    }

    /// A default three-city layout on the given grid: one metropolis and
    /// two towns.
    pub fn three_cities(grid: GeoGrid) -> Self {
        let w = f64::from(grid.width());
        let h = f64::from(grid.height());
        CityModel::new(
            grid,
            vec![
                (w * 0.3, h * 0.3, w * 0.08), // metropolis
                (w * 0.75, h * 0.6, w * 0.05),
                (w * 0.2, h * 0.8, w * 0.04),
            ],
            vec![3.0, 1.0, 0.6],
        )
    }

    /// The grid.
    pub fn grid(&self) -> GeoGrid {
        self.grid
    }

    /// Which city a user drawn uniformly in `[0,1)` belongs to.
    fn pick_city<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut u: f64 = rng.gen();
        for (i, &w) in self.weights.iter().enumerate() {
            if u < w {
                return i;
            }
            u -= w;
        }
        self.weights.len() - 1
    }

    /// Draw a home cell: Gaussian around the chosen city center, clamped
    /// to the grid.
    pub fn sample_home<R: Rng + ?Sized>(&self, rng: &mut R) -> LocationId {
        let (cx, cy, spread) = self.cities[self.pick_city(rng)];
        let (gx, gy) = gaussian_pair(rng);
        let x = (cx + gx * spread)
            .round()
            .clamp(0.0, f64::from(self.grid.width() - 1));
        let y = (cy + gy * spread)
            .round()
            .clamp(0.0, f64::from(self.grid.height() - 1));
        self.grid.cell(x as u16, y as u16)
    }

    /// The nearest city center's cell (for targeting anchors).
    pub fn city_center(&self, city: usize) -> LocationId {
        let (x, y, _) = self.cities[city];
        self.grid.cell(
            (x.round() as u16).min(self.grid.width() - 1),
            (y.round() as u16).min(self.grid.height() - 1),
        )
    }

    /// Number of cities.
    pub fn num_cities(&self) -> usize {
        self.cities.len()
    }
}

/// One standard-normal pair via Box–Muller.
fn gaussian_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn cell_coords_roundtrip() {
        let g = GeoGrid::new(16, 8);
        assert_eq!(g.num_cells(), 128);
        for y in 0..8 {
            for x in 0..16 {
                let c = g.cell(x, y);
                assert_eq!(g.coords(c), (x, y));
            }
        }
    }

    #[test]
    fn distances() {
        let g = GeoGrid::new(10, 10);
        let a = g.cell(0, 0);
        assert_eq!(g.distance(a, a), 0.0);
        assert_eq!(g.distance(a, g.cell(3, 4)), 5.0);
        assert_eq!(g.distance(g.cell(3, 4), a), 5.0);
    }

    #[test]
    fn radius_queries() {
        let g = GeoGrid::new(10, 10);
        let center = g.cell(5, 5);
        let r0 = g.cells_within(center, 0.0);
        assert_eq!(r0, vec![center]);
        let r1 = g.cells_within(center, 1.0);
        assert_eq!(r1.len(), 5, "von Neumann neighbourhood at radius 1");
        let r15 = g.cells_within(center, 1.5);
        assert_eq!(r15.len(), 9, "Moore neighbourhood at radius 1.5");
        for &c in &r15 {
            assert!(g.distance(center, c) <= 1.5);
        }
    }

    #[test]
    fn radius_clips_at_borders() {
        let g = GeoGrid::new(10, 10);
        let corner = g.cell(0, 0);
        let cells = g.cells_within(corner, 1.0);
        assert_eq!(cells.len(), 3, "corner has only 2 in-grid neighbours");
    }

    #[test]
    fn big_radius_covers_everything() {
        let g = GeoGrid::new(6, 6);
        assert_eq!(g.cells_within(g.cell(3, 3), 100.0).len(), 36);
    }

    #[test]
    fn city_homes_cluster() {
        let grid = GeoGrid::new(100, 100);
        let model = CityModel::three_cities(grid);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut near_any_city = 0;
        const N: usize = 2000;
        for _ in 0..N {
            let home = model.sample_home(&mut rng);
            let nearest = (0..model.num_cities())
                .map(|c| grid.distance(home, model.city_center(c)))
                .fold(f64::INFINITY, f64::min);
            if nearest <= 20.0 {
                near_any_city += 1;
            }
        }
        let frac = near_any_city as f64 / N as f64;
        assert!(frac > 0.9, "homes should cluster near cities, got {frac}");
    }

    #[test]
    fn city_weights_skew_population() {
        let grid = GeoGrid::new(100, 100);
        let model = CityModel::three_cities(grid);
        let mut rng = SmallRng::seed_from_u64(2);
        let metro = model.city_center(0);
        let town = model.city_center(2);
        let (mut near_metro, mut near_town) = (0, 0);
        for _ in 0..3000 {
            let home = model.sample_home(&mut rng);
            if grid.distance(home, metro) < 15.0 {
                near_metro += 1;
            }
            if grid.distance(home, town) < 15.0 {
                near_town += 1;
            }
        }
        assert!(
            near_metro > 2 * near_town,
            "metropolis ({near_metro}) should out-populate the town ({near_town})"
        );
    }

    #[test]
    fn gaussian_pair_is_standard_normal_ish() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        const N: usize = 20_000;
        for _ in 0..N / 2 {
            let (a, b) = gaussian_pair(&mut rng);
            sum += a + b;
            sumsq += a * a + b * b;
        }
        let mean = sum / N as f64;
        let var = sumsq / N as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn empty_grid_panics() {
        let _ = GeoGrid::new(0, 5);
    }

    #[test]
    #[should_panic(expected = "LocationId space")]
    fn oversized_grid_panics() {
        let _ = GeoGrid::new(1000, 1000);
    }
}

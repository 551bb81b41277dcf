//! IVF-Flat: inverted file index over k-means partitions.

use crate::dataset::Dataset;
use crate::distance::{l2_sq, norm, Metric};
use crate::exact::{scan_rows_into, TopK};
use crate::{DimensionMismatch, Hit, Parallelism, VectorIndex};
use backbone_query::pool::run_workers;
use rand::prelude::*;
use std::collections::HashMap;

/// IVF-Flat index: vectors are partitioned by k-means into `nlist` cells; a
/// query probes only the `nprobe` nearest cells. Trades recall for speed —
/// [`crate::recall`] quantifies the trade.
///
/// Storage is cell-major: one buffer holds every vector, each cell's
/// members back to back in insertion order, with their ids (and, for
/// cosine, their norms) in parallel arrays, so probing a cell is one
/// sequential pass of the blocked kernels. The buffer is the built
/// dataset's own, permuted in place. An insert appends to its cell's run,
/// shifting the cells after it by one row: a memmove of the index tail,
/// which the engine never pays — it builds each table's IVF once.
///
/// Probed cells are independent, so [`VectorIndex::search_with`] splits them
/// across the shared worker pool with a top-k heap per worker, merged at
/// drain — the identical shape to the relational top-k operator.
pub struct IvfIndex {
    dim: usize,
    metric: Metric,
    centroids: Vec<Vec<f32>>,
    /// Cell `c` owns rows `starts[c]..starts[c + 1]`; `nlist + 1` entries.
    starts: Vec<usize>,
    /// Row vectors, back to back, cell-major.
    values: Vec<f32>,
    /// Row ids.
    ids: Vec<u64>,
    /// Row Euclidean norms; empty unless the metric reads them (cosine).
    norms: Vec<f32>,
    /// Where each id's vector lives, for [`VectorIndex::distance_of`].
    positions: Positions,
    nprobe: usize,
}

/// A member's place: `(cell, offset within the cell)`.
type Position = (u32, u32);

const ABSENT: Position = (u32::MAX, u32::MAX);

/// Id → [`Position`]. Engine ids are row ordinals, so a table indexed by id
/// answers them with one load. An id far past the index size goes to a map
/// instead, so a sparse id cannot grow the table without bound.
#[derive(Default)]
struct Positions {
    dense: Vec<Position>,
    sparse: HashMap<u64, Position>,
}

impl Positions {
    /// Record `id` at `at` in an index of `len` members (the last write of
    /// an id wins, like [`Dataset::vector_by_id`]).
    fn set(&mut self, id: u64, at: Position, len: usize) {
        let slot = usize::try_from(id).unwrap_or(usize::MAX);
        if slot >= self.dense.len() && slot <= 2 * len + 1024 {
            self.dense.resize(slot + 1, ABSENT);
        }
        match self.dense.get_mut(slot) {
            Some(p) => *p = at,
            None => {
                self.sparse.insert(id, at);
            }
        }
    }

    #[inline]
    fn get(&self, id: u64) -> Option<Position> {
        match usize::try_from(id)
            .ok()
            .and_then(|slot| self.dense.get(slot))
        {
            Some(&p) if p != ABSENT => Some(p),
            _ => self.sparse.get(&id).copied(),
        }
    }
}

/// Build parameters for [`IvfIndex`].
#[derive(Debug, Clone)]
pub struct IvfParams {
    /// Number of k-means cells.
    pub nlist: usize,
    /// Cells probed per query.
    pub nprobe: usize,
    /// Lloyd iterations during training.
    pub train_iters: usize,
    /// RNG seed (deterministic builds).
    pub seed: u64,
}

impl Default for IvfParams {
    fn default() -> Self {
        IvfParams {
            nlist: 64,
            nprobe: 8,
            train_iters: 10,
            seed: 42,
        }
    }
}

impl IvfIndex {
    /// Train and build the index over `data`, moving its vectors into the
    /// cells.
    ///
    /// `nlist` is clamped to the dataset size; an empty dataset yields an
    /// empty index that returns no hits.
    pub fn build(data: Dataset, metric: Metric, params: IvfParams) -> IvfIndex {
        let dim = data.dim();
        let n = data.len();
        let mut ix = IvfIndex {
            dim,
            metric,
            centroids: Vec::new(),
            starts: vec![0],
            values: Vec::new(),
            ids: Vec::new(),
            norms: Vec::new(),
            positions: Positions::default(),
            nprobe: params.nprobe.max(1),
        };
        if n == 0 {
            return ix;
        }
        let nlist = params.nlist.clamp(1, n);
        let mut rng = StdRng::seed_from_u64(params.seed);

        // Init: sample distinct vectors as seeds.
        let mut slots: Vec<usize> = (0..n).collect();
        slots.shuffle(&mut rng);
        let mut centroids: Vec<Vec<f32>> = slots[..nlist]
            .iter()
            .map(|&i| data.vector(i).to_vec())
            .collect();

        // Lloyd iterations. Assignment always uses L2 (standard for IVF
        // training even under cosine; vectors should be pre-normalized for
        // cosine workloads).
        let mut assignment = vec![0usize; n];
        for _ in 0..params.train_iters.max(1) {
            for (i, slot) in assignment.iter_mut().enumerate() {
                *slot = nearest_centroid(&centroids, data.vector(i));
            }
            let mut sums = vec![vec![0f32; dim]; nlist];
            let mut counts = vec![0usize; nlist];
            for (i, &c) in assignment.iter().enumerate() {
                counts[c] += 1;
                for (s, v) in sums[c].iter_mut().zip(data.vector(i)) {
                    *s += v;
                }
            }
            for c in 0..nlist {
                if counts[c] > 0 {
                    for s in sums[c].iter_mut() {
                        *s /= counts[c] as f32;
                    }
                    centroids[c] = sums[c].clone();
                } else {
                    // Re-seed empty cells with a random vector.
                    let i = rng.gen_range(0..n);
                    centroids[c] = data.vector(i).to_vec();
                }
            }
        }

        for (i, slot) in assignment.iter_mut().enumerate() {
            *slot = nearest_centroid(&centroids, data.vector(i));
        }
        ix.centroids = centroids;
        ix.fill_cells(data, assignment);
        ix
    }

    /// Move `data` into cell-major order: slot `i` joins cell
    /// `assignment[i]`, each cell keeping slot order. The dataset's own
    /// buffers are permuted in place, so the vectors are never copied.
    fn fill_cells(&mut self, data: Dataset, mut assignment: Vec<usize>) {
        let nlist = self.centroids.len();
        let (mut ids, mut values, mut norms) = data.into_parts();
        let mut starts = vec![0usize; nlist + 1];
        for &c in &assignment {
            starts[c + 1] += 1;
        }
        for c in 0..nlist {
            starts[c + 1] += starts[c];
        }
        // Turn each slot's cell into its destination row.
        let mut fill = starts.clone();
        self.positions.dense.reserve(ids.len());
        for (slot, dest) in assignment.iter_mut().enumerate() {
            let c = *dest;
            *dest = fill[c];
            fill[c] += 1;
            let at = (c as u32, (*dest - starts[c]) as u32);
            self.positions.set(ids[slot], at, ids.len());
        }
        permute_rows(&mut values, self.dim, &assignment);
        permute_rows(&mut ids, 1, &assignment);
        if self.metric.uses_norms() {
            permute_rows(&mut norms, 1, &assignment);
        } else {
            norms = Vec::new();
        }
        self.starts = starts;
        self.values = values;
        self.ids = ids;
        self.norms = norms;
    }

    /// Change the probe width at query time (recall/latency knob).
    pub fn set_nprobe(&mut self, nprobe: usize) {
        self.nprobe = nprobe.max(1);
    }

    /// Number of cells.
    pub fn nlist(&self) -> usize {
        self.centroids.len()
    }

    /// The cells a search for `query` probes, nearest centroid first.
    pub fn probes(&self, query: &[f32]) -> Vec<usize> {
        let mut order: Vec<(f32, usize)> = self
            .centroids
            .iter()
            .enumerate()
            .map(|(i, c)| (l2_sq(query, c), i))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        order.truncate(self.nprobe);
        order.into_iter().map(|(_, i)| i).collect()
    }

    /// The ids in `cell`, in insertion order (the order a probe scans them).
    pub fn cell_ids(&self, cell: usize) -> &[u64] {
        &self.ids[self.starts[cell]..self.starts[cell + 1]]
    }

    /// Insert one vector without retraining: it is appended to the cell of
    /// its nearest centroid (see [`IvfIndex`] for the cost). Centroids are
    /// *not* moved — after heavy churn the partition drifts from the data
    /// and recall sags until a rebuild, which is exactly the trade the
    /// incremental-insert recall test pins down. Panics on dimension
    /// mismatch; the typed alternative is [`IvfIndex::try_insert`].
    pub fn insert(&mut self, id: u64, vector: &[f32]) {
        self.try_insert(id, vector)
            .expect("vector dimension mismatch");
    }

    /// [`IvfIndex::insert`] with a typed dimension error.
    pub fn try_insert(&mut self, id: u64, vector: &[f32]) -> Result<(), DimensionMismatch> {
        if vector.len() != self.dim {
            return Err(DimensionMismatch {
                expected: self.dim,
                got: vector.len(),
            });
        }
        // First vector into an empty (untrained) index seeds a single cell.
        if self.centroids.is_empty() {
            self.centroids.push(vector.to_vec());
            self.starts.push(0);
        }
        let c = nearest_centroid(&self.centroids, vector);
        let row = self.starts[c + 1];
        let at = (c as u32, (row - self.starts[c]) as u32);
        self.positions.set(id, at, self.ids.len() + 1);
        self.values
            .splice(row * self.dim..row * self.dim, vector.iter().copied());
        self.ids.insert(row, id);
        if self.metric.uses_norms() {
            self.norms.insert(row, norm(vector));
        }
        for start in &mut self.starts[c + 1..] {
            *start += 1;
        }
        Ok(())
    }

    /// Score every member of `cell` into `acc`.
    fn scan_cell(&self, cell: usize, query: &[f32], query_norm: f32, acc: &mut TopK) {
        let (lo, hi) = (self.starts[cell], self.starts[cell + 1]);
        let norms = if self.norms.is_empty() {
            &[][..]
        } else {
            &self.norms[lo..hi]
        };
        scan_rows_into(
            self.metric,
            query,
            query_norm,
            &self.values[lo * self.dim..hi * self.dim],
            norms,
            &self.ids[lo..hi],
            acc,
        );
    }
}

/// Reorder the `width`-item rows of `rows` in place so that row `i` lands
/// at row `dest[i]` (`dest` a permutation), following each cycle with one
/// row of scratch.
fn permute_rows<T: Copy + Default>(rows: &mut [T], width: usize, dest: &[usize]) {
    let mut placed = vec![false; dest.len()];
    let mut carry = vec![T::default(); width];
    for start in 0..dest.len() {
        if placed[start] || dest[start] == start {
            continue;
        }
        carry.copy_from_slice(&rows[start * width..(start + 1) * width]);
        let mut at = dest[start];
        while at != start {
            carry.swap_with_slice(&mut rows[at * width..(at + 1) * width]);
            placed[at] = true;
            at = dest[at];
        }
        rows[start * width..(start + 1) * width].copy_from_slice(&carry);
        placed[start] = true;
    }
}

/// The centroid nearest `v` by L2: each distance is computed once, ordered
/// by `total_cmp`, and the first of equal distances wins (the rule of
/// `Iterator::min_by`), so training and inserts assign bit-identically to a
/// `min_by` over the same distances.
fn nearest_centroid(centroids: &[Vec<f32>], v: &[f32]) -> usize {
    let (first, rest) = centroids.split_first().expect("nlist >= 1");
    let mut best = (0, l2_sq(first, v));
    for (i, c) in rest.iter().enumerate() {
        let d = l2_sq(c, v);
        if d.total_cmp(&best.1).is_lt() {
            best = (i + 1, d);
        }
    }
    best.0
}

impl VectorIndex for IvfIndex {
    fn metric(&self) -> Metric {
        self.metric
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn distance_of(&self, query: &[f32], id: u64) -> Option<f32> {
        let (c, off) = self.positions.get(id)?;
        let row = self.starts[c as usize] + off as usize;
        let v = &self.values[row * self.dim..(row + 1) * self.dim];
        Some(self.metric.distance(query, v))
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        self.search_with(query, k, Parallelism::Serial)
    }

    fn search_with(&self, query: &[f32], k: usize, parallel: Parallelism) -> Vec<Hit> {
        if self.centroids.is_empty() {
            return Vec::new();
        }
        let probes = self.probes(query);
        let qn = norm(query);
        // One worker per probed cell is the natural grain; fewer probes than
        // workers just idles the surplus.
        let workers = parallel.worker_threads().min(probes.len()).max(1);
        if workers <= 1 {
            let mut acc = TopK::new(k);
            for &cell in &probes {
                self.scan_cell(cell, query, qn, &mut acc);
            }
            return acc.into_hits();
        }
        // Strided cell assignment balances uneven cell sizes better than
        // contiguous chunks (nearest cells tend to be the largest).
        let heaps = run_workers(workers, |w| {
            let mut acc = TopK::new(k);
            for &cell in probes.iter().skip(w).step_by(workers) {
                self.scan_cell(cell, query, qn, &mut acc);
            }
            acc
        });
        let mut merged = TopK::new(k);
        for h in heaps {
            merged.merge(h);
        }
        merged.into_hits()
    }

    fn search_masked(&self, query: &[f32], k: usize, filter: &dyn Fn(u64) -> bool) -> Vec<Hit> {
        if self.centroids.is_empty() {
            return Vec::new();
        }
        let qn = norm(query);
        let mut acc = TopK::new(k);
        for cell in self.probes(query) {
            for row in self.starts[cell]..self.starts[cell + 1] {
                let id = self.ids[row];
                if filter(id) {
                    let v = &self.values[row * self.dim..(row + 1) * self.dim];
                    let row_norm = self.norms.get(row).copied().unwrap_or(0.0);
                    acc.push(id, self.metric.distance_prenorm(query, v, qn, row_norm));
                }
            }
        }
        acc.into_hits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered_dataset(n_per_cluster: usize) -> Dataset {
        // Four well-separated clusters in 2D.
        let mut rng = StdRng::seed_from_u64(7);
        let centers = [[0.0f32, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]];
        let mut d = Dataset::new(2);
        let mut id = 0;
        for c in centers {
            for _ in 0..n_per_cluster {
                let v = [c[0] + rng.gen::<f32>(), c[1] + rng.gen::<f32>()];
                d.push(id, &v);
                id += 1;
            }
        }
        d
    }

    #[test]
    fn finds_cluster_members() {
        let d = clustered_dataset(50);
        let ix = IvfIndex::build(
            d,
            Metric::L2,
            IvfParams {
                nlist: 4,
                nprobe: 1,
                ..Default::default()
            },
        );
        // Query near cluster 1 (ids 50..100).
        let hits = ix.search(&[100.0, 0.5], 10);
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|h| (50..100).contains(&h.id)));
    }

    #[test]
    fn full_probe_equals_exact() {
        use crate::exact::ExactIndex;
        let d = clustered_dataset(25);
        let exact = ExactIndex::from_dataset(d.clone(), Metric::L2);
        let ix = IvfIndex::build(
            d,
            Metric::L2,
            IvfParams {
                nlist: 8,
                nprobe: 8,
                ..Default::default()
            },
        );
        let q = [50.0, 50.0];
        let a: Vec<u64> = ix.search(&q, 5).iter().map(|h| h.id).collect();
        let b: Vec<u64> = exact.search(&q, 5).iter().map(|h| h.id).collect();
        assert_eq!(a, b, "probing every cell must match brute force");
    }

    #[test]
    fn nlist_clamped_to_dataset() {
        let mut d = Dataset::new(1);
        d.push(1, &[1.0]);
        d.push(2, &[2.0]);
        let ix = IvfIndex::build(
            d,
            Metric::L2,
            IvfParams {
                nlist: 100,
                ..Default::default()
            },
        );
        assert!(ix.nlist() <= 2);
        assert_eq!(ix.search(&[1.1], 1)[0].id, 1);
    }

    #[test]
    fn empty_dataset() {
        let ix = IvfIndex::build(Dataset::new(4), Metric::L2, IvfParams::default());
        assert!(ix.search(&[0.0; 4], 5).is_empty());
        assert!(ix.is_empty());
    }

    #[test]
    fn nprobe_monotone_recall() {
        use crate::exact::ExactIndex;
        let d = clustered_dataset(100);
        let exact = ExactIndex::from_dataset(d.clone(), Metric::L2);
        let q = [55.0, 45.0];
        let truth: std::collections::HashSet<u64> =
            exact.search(&q, 10).iter().map(|h| h.id).collect();
        let mut ix = IvfIndex::build(
            d,
            Metric::L2,
            IvfParams {
                nlist: 16,
                nprobe: 1,
                ..Default::default()
            },
        );
        let recall = |ix: &IvfIndex| {
            let got: std::collections::HashSet<u64> =
                ix.search(&q, 10).iter().map(|h| h.id).collect();
            got.intersection(&truth).count()
        };
        let r1 = recall(&ix);
        ix.set_nprobe(16);
        let r16 = recall(&ix);
        assert!(r16 >= r1);
        assert_eq!(r16, 10, "probing all cells must reach full recall");
    }

    #[test]
    fn parallel_probes_match_serial() {
        let d = clustered_dataset(100);
        let mut ix = IvfIndex::build(
            d,
            Metric::L2,
            IvfParams {
                nlist: 16,
                nprobe: 8,
                ..Default::default()
            },
        );
        ix.set_nprobe(8);
        for q in [[55.0f32, 45.0], [1.0, 1.0], [99.0, 99.0]] {
            let serial = ix.search(&q, 10);
            for workers in [2usize, 4, 8] {
                let par = ix.search_with(&q, 10, Parallelism::Fixed(workers));
                assert_eq!(serial, par, "workers={workers}");
            }
        }
    }

    #[test]
    fn incremental_insert_lands_in_nearest_cell() {
        let d = clustered_dataset(50);
        let mut ix = IvfIndex::build(
            d,
            Metric::L2,
            IvfParams {
                nlist: 4,
                nprobe: 1,
                ..Default::default()
            },
        );
        // New vector inside cluster 1's region must be findable with a
        // single probe (its cell is the one the query probes).
        ix.insert(9_000, &[100.4, 0.4]);
        let hits = ix.search(&[100.4, 0.4], 1);
        assert_eq!(hits[0].id, 9_000);
        assert_eq!(ix.len(), 201);
    }

    #[test]
    fn insert_into_empty_index_seeds_a_cell() {
        let mut ix = IvfIndex::build(Dataset::new(2), Metric::L2, IvfParams::default());
        ix.insert(1, &[5.0, 5.0]);
        ix.insert(2, &[6.0, 6.0]);
        assert_eq!(ix.nlist(), 1);
        assert_eq!(ix.search(&[5.1, 5.1], 1)[0].id, 1);
    }

    #[test]
    fn try_insert_rejects_wrong_dimension() {
        let mut ix = IvfIndex::build(clustered_dataset(5), Metric::L2, IvfParams::default());
        let err = ix.try_insert(999, &[1.0, 2.0, 3.0]).unwrap_err();
        assert_eq!((err.expected, err.got), (2, 3));
        assert_eq!(ix.len(), 20, "failed insert must not grow the index");
    }

    #[test]
    fn masked_search_respects_filter() {
        let d = clustered_dataset(50);
        let ix = IvfIndex::build(
            d,
            Metric::L2,
            IvfParams {
                nlist: 4,
                nprobe: 4,
                ..Default::default()
            },
        );
        let hits = ix.search_masked(&[0.5, 0.5], 5, &|id| id >= 10);
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|h| h.id >= 10));
    }

    #[test]
    fn cells_keep_insertion_order_and_distance_of_finds_every_id() {
        let d = clustered_dataset(30);
        let vectors: Vec<(u64, Vec<f32>)> = d.iter().map(|(id, v)| (id, v.to_vec())).collect();
        for metric in [Metric::L2, Metric::Cosine] {
            let mut ix = IvfIndex::build(
                d.clone(),
                metric,
                IvfParams {
                    nlist: 6,
                    ..Default::default()
                },
            );
            // A dense id past the build, and one far past any dense table.
            ix.insert(120, &[3.0, 4.0]);
            ix.insert(u64::MAX, &[50.0, 50.0]);
            let mut all = vectors.clone();
            all.push((120, vec![3.0, 4.0]));
            all.push((u64::MAX, vec![50.0, 50.0]));
            let q = [20.0, 70.0];
            for (id, v) in &all {
                assert_eq!(ix.distance_of(&q, *id), Some(metric.distance(&q, v)));
            }
            assert_eq!(ix.distance_of(&q, 121), None);
            let mut seen = 0;
            for c in 0..ix.nlist() {
                let ids = ix.cell_ids(c);
                let order: Vec<usize> = ids
                    .iter()
                    .map(|id| all.iter().position(|(x, _)| x == id).unwrap())
                    .collect();
                assert!(order.windows(2).all(|w| w[0] < w[1]), "cell {c}: {ids:?}");
                seen += ids.len();
            }
            assert_eq!(seen, all.len());
        }
    }

    /// The centroid `Iterator::min_by` picks, evaluating both distances of
    /// every comparison: the assignment rule the build must keep.
    fn reference_nearest(centroids: &[Vec<f32>], v: &[f32]) -> usize {
        centroids
            .iter()
            .enumerate()
            .min_by(|a, b| l2_sq(a.1, v).total_cmp(&l2_sq(b.1, v)))
            .map(|(i, _)| i)
            .unwrap()
    }

    /// Seeding, Lloyd iterations and the final pass, written out with
    /// [`reference_nearest`]: the trained centroids and each cell's ids in
    /// insertion order.
    fn reference_lloyd(data: &Dataset, params: &IvfParams) -> (Vec<Vec<f32>>, Vec<Vec<u64>>) {
        let (n, dim) = (data.len(), data.dim());
        let nlist = params.nlist.clamp(1, n);
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut slots: Vec<usize> = (0..n).collect();
        slots.shuffle(&mut rng);
        let mut centroids: Vec<Vec<f32>> = slots[..nlist]
            .iter()
            .map(|&i| data.vector(i).to_vec())
            .collect();
        for _ in 0..params.train_iters.max(1) {
            let mut sums = vec![vec![0f32; dim]; nlist];
            let mut counts = vec![0usize; nlist];
            for (_, v) in data.iter() {
                let c = reference_nearest(&centroids, v);
                counts[c] += 1;
                for (s, x) in sums[c].iter_mut().zip(v) {
                    *s += x;
                }
            }
            for c in 0..nlist {
                centroids[c] = if counts[c] > 0 {
                    sums[c].iter().map(|s| s / counts[c] as f32).collect()
                } else {
                    data.vector(rng.gen_range(0..n)).to_vec()
                };
            }
        }
        let mut cells = vec![Vec::new(); nlist];
        for (id, v) in data.iter() {
            cells[reference_nearest(&centroids, v)].push(id);
        }
        (centroids, cells)
    }

    /// Vectors that make the assignment rule matter: two patterns repeated
    /// so that seeded centroids tie, random rows, and one row with an
    /// infinite component.
    fn awkward_dataset(dim: usize, n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(dim as u64);
        let mut d = Dataset::new(dim);
        for id in 0..n as u64 {
            let v: Vec<f32> = match id % 4 {
                0 => vec![1.0; dim],
                1 => (0..dim).map(|j| j as f32).collect(),
                _ => (0..dim).map(|_| rng.gen_range(-4.0..4.0)).collect(),
            };
            d.push(id, &v);
        }
        let mut inf = vec![0.5; dim];
        inf[dim / 2] = f32::INFINITY;
        d.push(n as u64, &inf);
        d
    }

    #[test]
    fn build_matches_reference_lloyd() {
        // Dims off the LANES multiple; the last case clamps nlist to n.
        for (dim, n, nlist) in [(5, 60, 8), (33, 50, 8), (5, 6, 64)] {
            for metric in [Metric::L2, Metric::Cosine] {
                let data = awkward_dataset(dim, n);
                let params = IvfParams {
                    nlist,
                    ..Default::default()
                };
                let (centroids, cells) = reference_lloyd(&data, &params);
                let mut ix = IvfIndex::build(data, metric, params);
                let case = format!("dim {dim}, n {n}, nlist {nlist}, {metric:?}");
                let bits = |cs: &[Vec<f32>]| -> Vec<Vec<u32>> {
                    cs.iter()
                        .map(|c| c.iter().map(|x| x.to_bits()).collect())
                        .collect()
                };
                assert_eq!(bits(&ix.centroids), bits(&centroids), "{case}");
                for (c, ids) in cells.iter().enumerate() {
                    assert_eq!(ix.cell_ids(c), ids.as_slice(), "{case}, cell {c}");
                }
                // Inserts after the build land in the reference's cell,
                // duplicates and an infinite row included.
                let mut inf = vec![-2.0; dim];
                inf[0] = f32::INFINITY;
                let extra = [vec![1.0; dim], (0..dim).map(|j| j as f32).collect(), inf];
                for (k, v) in extra.iter().enumerate() {
                    let id = 1_000 + k as u64;
                    ix.try_insert(id, v).unwrap();
                    let c = reference_nearest(&ix.centroids, v);
                    assert!(ix.cell_ids(c).contains(&id), "{case}, insert {k}");
                }
            }
        }
    }

    #[test]
    fn permute_rows_follows_every_cycle() {
        let mut values: Vec<f32> = (0..12).map(|x| x as f32).collect();
        // Rows 0..6 of width 2; two cycles (0 2 4) and (1 3), one fixed row.
        let dest = [2, 3, 4, 1, 0, 5];
        permute_rows(&mut values, 2, &dest);
        assert_eq!(
            values,
            vec![8.0, 9.0, 6.0, 7.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 11.0]
        );
    }
}

//! The four workloads and everything made from `--seed`: the fields'
//! low-order noise, the range boxes, the put-key order and the store
//! payload. The library
//! only ever sees these generated inputs.

use crate::util::Rng;
use cuszp::datagen::{dataset_fields, generate, DatasetKind, Scale};
use cuszp::parallel::{plan_chunks, ChunkPlan};
use cuszp::{Dims, RangeSpec};

/// Keys the cluster phases cycle over (overwrites → dead bytes → compaction).
pub const N_KEYS: usize = 16;

/// Share of `--seconds` each time-budgeted phase of the untraced run gets.
/// Every workload runs the whole chain (the result line must carry every
/// end-to-end metric); the shares put the run's time where the workload's
/// own layers are.
#[derive(Debug, Clone, Copy)]
pub struct Shares {
    pub compress: f64,
    pub decompress: f64,
    pub connect: f64,
    pub rt_compress: f64,
    pub rt_decompress: f64,
    pub range_hot: f64,
    pub range_cold: f64,
    pub get_range: f64,
    pub get_range_degraded: f64,
}

pub struct Workload {
    pub name: &'static str,
    /// Codec fields; the first one also feeds the serve and cluster phases.
    pub fields: &'static [(DatasetKind, &'static str)],
    /// `StoreConfig::compact_at` of every cluster node.
    pub compact_at: u64,
    /// `ClusterClient::put` calls in each round that has every node up (a
    /// fixed count, so the bytes on disk repeat exactly for one seed; at
    /// least one cycle of the keys, so every key exists before it is read).
    pub puts_per_round: usize,
    pub shares: Shares,
}

const CODEC_SHARES: Shares = Shares {
    compress: 0.25,
    decompress: 0.25,
    connect: 0.05,
    rt_compress: 0.07,
    rt_decompress: 0.07,
    range_hot: 0.05,
    range_cold: 0.06,
    get_range: 0.05,
    get_range_degraded: 0.05,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "codec_cesm2d",
        fields: &[
            (DatasetKind::CesmAtm, "AEROD_v"),
            (DatasetKind::CesmAtm, "LANDFRAC"),
        ],
        compact_at: 64 << 20,
        puts_per_round: N_KEYS,
        shares: CODEC_SHARES,
    },
    Workload {
        name: "codec_hacc1d",
        fields: &[(DatasetKind::Hacc, "vx"), (DatasetKind::Hacc, "x")],
        compact_at: 64 << 20,
        puts_per_round: N_KEYS,
        shares: CODEC_SHARES,
    },
    Workload {
        name: "serve_nyx3d",
        fields: &[(DatasetKind::Nyx, "baryon_density")],
        compact_at: 64 << 20,
        puts_per_round: N_KEYS,
        shares: Shares {
            compress: 0.08,
            decompress: 0.08,
            connect: 0.10,
            rt_compress: 0.15,
            rt_decompress: 0.15,
            range_hot: 0.12,
            range_cold: 0.15,
            get_range: 0.05,
            get_range_degraded: 0.05,
        },
    },
    Workload {
        name: "cluster_durable",
        fields: &[(DatasetKind::Nyx, "baryon_density")],
        // Small enough that every node compacts about once per cycle of
        // the 16 keys.
        compact_at: 8 << 20,
        puts_per_round: 3 * N_KEYS,
        shares: Shares {
            compress: 0.08,
            decompress: 0.08,
            connect: 0.05,
            rt_compress: 0.07,
            rt_decompress: 0.07,
            range_hot: 0.05,
            range_cold: 0.06,
            get_range: 0.20,
            get_range_degraded: 0.20,
        },
    },
];

/// A generated field; `name` is the spec's static name (span label).
pub struct BenchField {
    pub name: &'static str,
    pub dims: Dims,
    pub data: Vec<f32>,
}

impl BenchField {
    pub fn bytes(&self) -> usize {
        self.data.len() * 4
    }
}

/// Half-width of the seeded perturbation, as a share of the absolute error
/// bound.
const NOISE_OF_EB: f64 = 0.01;

/// Generates the workload's fields and adds to every value uniform noise of
/// at most 1 % of the error bound, drawn from the seed: other bytes, the
/// same statistics, and the same codec plan. (Rotating a field instead
/// moves other data under the predictor probe, and the `Auto` plan of the
/// Nyx and HACC `vx` fields then flips between seeds — one workload would
/// be two.) Seed 0 leaves the field as `datagen` makes it, the
/// `BENCH_7..10` field.
pub fn make_fields(w: &Workload, scale: Scale, seed: u64) -> Vec<BenchField> {
    w.fields
        .iter()
        .enumerate()
        .map(|(i, &(kind, name))| {
            let spec = dataset_fields(kind)
                .into_iter()
                .find(|f| f.name == name)
                .expect("workload names a field datagen has");
            let field = generate(&spec, scale);
            let mut data = field.data;
            if seed != 0 {
                let eb = cuszp::ErrorBound::Relative(crate::env::EB_REL).absolute(&data);
                let mut rng = Rng::new(seed ^ ((i as u64) << 32));
                for x in &mut data {
                    let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    *x = (*x as f64 + (2.0 * unit - 1.0) * NOISE_OF_EB * eb) as f32;
                }
            }
            BenchField {
                name: spec.name,
                dims: field.dims,
                data,
            }
        })
        .collect()
}

/// Slowest-first extents, as the chunk planner takes them.
pub fn plan_extents(dims: Dims) -> Vec<usize> {
    match dims {
        Dims::D1(n) => vec![n],
        Dims::D2 { ny, nx } => vec![ny, nx],
        Dims::D3 { nz, ny, nx } => vec![nz, ny, nx],
    }
}

/// Chunk target of every chunked archive: 256 Ki elements at `Small`
/// (1 MiB decoded per chunk), an eighth of the field at `Tiny`.
pub fn chunk_target(dims: Dims, scale: Scale) -> usize {
    match scale {
        Scale::Small => 256 * 1024,
        Scale::Tiny => (dims.len() / 8).max(1),
    }
}

/// Draws same-sized range boxes that each sit inside one chunk.
pub struct BoxMaker {
    dims: Dims,
    plan: ChunkPlan,
    rng: Rng,
}

impl BoxMaker {
    pub fn new(dims: Dims, target: usize, seed: u64) -> BoxMaker {
        BoxMaker {
            dims,
            plan: plan_chunks(&plan_extents(dims), target),
            rng: Rng::new(seed),
        }
    }

    pub fn chunks(&self) -> usize {
        self.plan.len()
    }

    /// A box of about 40 Ki elements (10×64×64, 32×1280 or 40960) inside
    /// chunk `chunk`, at a drawn position.
    pub fn in_chunk(&mut self, chunk: usize) -> RangeSpec {
        let spec = &self.plan.chunks[chunk];
        let want: &[usize] = match self.dims {
            Dims::D1(_) => &[40960],
            Dims::D2 { .. } => &[32, 1280],
            Dims::D3 { .. } => &[10, 64, 64],
        };
        let extents = plan_extents(self.dims);
        let mut axes = Vec::with_capacity(want.len());
        for (axis, (&len, &extent)) in want.iter().zip(&extents).enumerate() {
            let (lo, hi) = if axis == 0 {
                (spec.slow.start, spec.slow.end)
            } else {
                (0, extent)
            };
            let len = len.min(hi - lo).max(1);
            let start = lo + self.rng.below(hi - lo - len + 1);
            axes.push(start..start + len);
        }
        RangeSpec::new(axes)
    }

    pub fn anywhere(&mut self) -> RangeSpec {
        let chunk = self.rng.below(self.plan.len());
        self.in_chunk(chunk)
    }
}

pub fn key_name(i: usize) -> String {
    format!("bench-{i:02}")
}

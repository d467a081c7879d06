//! Archive bytes → field: the one decode request.
//!
//! [`Decode`] names everything a decode can vary — an optional
//! [`RangeSpec`] and the reconstruction engine — and ends
//! in one of two typed finishers: [`Decode::strict`] (all-or-nothing,
//! `(Vec<T>, Dims)`) or [`Decode::resilient`] (fault-isolated,
//! [`RecoveredField<T>`]). The element type is the finisher's type
//! parameter; asking for the wrong one is [`CuszpError::DtypeMismatch`].
//! Callers that must serve either precision ask [`stored_dtype`] first
//! and dispatch once.
//!
//! Both formats take the same path: the bytes are opened once
//! (`crate::chunked::open`), a v1 archive as a container of one chunk,
//! and every finisher walks that container's chunks.

use crate::archive::{Archive, Dtype};
use crate::chunked::{open, ChunkedArchive};
use crate::element::{check_dtype, Element};
use crate::engine::PipelineEngine;
use crate::error::CuszpError;
use crate::range::{ChunkSource, RangeSpec};
use crate::recovery::{recover, FillPolicy, RecoveredField};
use cuszp_parallel::WorkerPool;
use cuszp_predictor::{Dims, ReconstructEngine};

/// A decode request over serialized archive bytes (v1 or chunked CSZ2,
/// both read as a container of chunks).
#[derive(Debug, Clone, Copy)]
pub struct Decode<'a> {
    bytes: &'a [u8],
    range: Option<&'a RangeSpec>,
    engine: ReconstructEngine,
}

impl<'a> Decode<'a> {
    /// The whole field, fine partial-sum engine, global worker policy.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            range: None,
            engine: ReconstructEngine::FinePartialSum,
        }
    }

    /// Decode only the sub-volume `spec`: only the chunks intersecting it
    /// are decoded. A v1 archive is one chunk, so its whole field is.
    pub fn range(mut self, spec: &'a RangeSpec) -> Self {
        self.range = Some(spec);
        self
    }

    /// Reconstruct with an explicit engine (engine-comparison runs).
    pub fn engine(mut self, engine: ReconstructEngine) -> Self {
        self.engine = engine;
        self
    }

    /// All-or-nothing decode: any damage anywhere in the archive is an
    /// error. Returns the field (or sub-volume) and its shape.
    pub fn strict<T: Element>(self) -> Result<(Vec<T>, Dims), CuszpError> {
        let lanes = &mut PipelineEngine::per_worker(&WorkerPool::with_default_workers());
        self.strict_on(lanes)
    }

    /// [`Decode::strict`] on engines the caller keeps: the chunks fan
    /// out over `lanes`, one thread per engine, and a one-chunk decode
    /// runs on the first. This is how a long-lived service decodes on
    /// the engines it keeps; the field is the same at any lane count.
    ///
    /// # Panics
    /// When `lanes` is empty and the decode has a chunk to walk.
    pub fn strict_on<T: Element>(
        self,
        lanes: &mut [PipelineEngine],
    ) -> Result<(Vec<T>, Dims), CuszpError> {
        let arc = ChunkedArchive::from_bytes(self.bytes)?;
        ChunkSource::Parsed(&arc).decode(self.engine, self.range, lanes, |_| None, |_, _| {})
    }

    /// Fault-isolated decode: undamaged chunks reconstruct bit-identically
    /// to [`Decode::strict`], shards covered by parity are healed first,
    /// lost slabs hold `fill`, and every (in-range) chunk is reported.
    /// Fails hard only when the container header is unusable or — for a
    /// whole-field decode — no chunk is recoverable.
    pub fn resilient<T: Element>(self, fill: FillPolicy) -> Result<RecoveredField<T>, CuszpError> {
        let pool = WorkerPool::with_default_workers();
        recover(self.bytes, self.range, fill, self.engine, &pool)
    }
}

/// The `f32` shorthand: `Decode::new(bytes).strict::<f32>()`.
pub fn decompress(bytes: &[u8]) -> Result<(Vec<f32>, Dims), CuszpError> {
    Decode::new(bytes).strict()
}

/// The `f32` range shorthand: `Decode::new(bytes).range(spec).strict::<f32>()`.
pub fn decompress_range(bytes: &[u8], spec: &RangeSpec) -> Result<(Vec<f32>, Dims), CuszpError> {
    Decode::new(bytes).range(spec).strict()
}

/// Decompresses an already-parsed v1 archive.
pub fn decompress_archive<T: Element>(
    archive: &Archive,
    engine: ReconstructEngine,
) -> Result<(Vec<T>, Dims), CuszpError> {
    check_dtype::<T>(archive.dtype)?;
    let out = PipelineEngine::new().decompress(archive, engine)?;
    Ok((out, archive.dims))
}

/// The element type an archive stores, read from its fixed header only
/// (v1 or CSZ2) — no chunk is parsed or checksummed. Truncated or
/// bad-magic input is the same typed error the full parsers give.
pub fn stored_dtype(bytes: &[u8]) -> Result<Dtype, CuszpError> {
    open(bytes).map(|hdr| hdr.dtype)
}

/// How many chunks an archive stores (1 for v1), read from its fixed
/// header only: the most lanes a whole-field [`Decode::strict_on`] can
/// keep busy.
pub fn stored_chunks(bytes: &[u8]) -> Result<usize, CuszpError> {
    open(bytes)?.checked_plan().map(|plan| plan.n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compressor;

    fn archives() -> [(Vec<u8>, Dtype); 4] {
        let f: Vec<f32> = (0..6000).map(|i| (i as f32 * 0.01).sin()).collect();
        let d: Vec<f64> = f.iter().map(|&x| x as f64).collect();
        let (c, dims, pool) = (Compressor::default(), Dims::D1(6000), WorkerPool::new(2));
        [
            (c.compress(&f, dims).unwrap().to_bytes(), Dtype::F32),
            (c.compress(&d, dims).unwrap().to_bytes(), Dtype::F64),
            (
                c.compress_chunked_with(&f, dims, 2000, &pool)
                    .unwrap()
                    .to_bytes(),
                Dtype::F32,
            ),
            (
                c.compress_chunked_with(&d, dims, 2000, &pool)
                    .unwrap()
                    .to_bytes(),
                Dtype::F64,
            ),
        ]
    }

    #[test]
    fn stored_dtype_reads_both_formats_and_precisions() {
        for (bytes, dtype) in archives() {
            assert_eq!(stored_dtype(&bytes), Ok(dtype));
            // Header only: a destroyed body does not change the answer.
            let mut bad = bytes.clone();
            for b in bad[80..].iter_mut() {
                *b = 0xAA;
            }
            assert_eq!(stored_dtype(&bad), Ok(dtype));
        }
    }

    #[test]
    fn stored_chunks_is_the_count_the_compress_planned() {
        let planned = crate::chunk_count(Dims::D1(6000), 2000);
        assert_eq!(planned, 3);
        let counts: Vec<usize> = archives()
            .iter()
            .map(|(bytes, _)| stored_chunks(bytes).unwrap())
            .collect();
        assert_eq!(counts, [1, 1, planned, planned]);
    }

    #[test]
    fn stored_dtype_damage_is_typed_never_a_panic() {
        for (bytes, _) in archives() {
            let header = if bytes.starts_with(b"CSZ2") { 52 } else { 72 };
            for cut in 0..header {
                assert!(
                    matches!(
                        stored_dtype(&bytes[..cut]),
                        Err(CuszpError::MalformedArchive(_))
                    ),
                    "cut {cut}"
                );
            }
            assert!(stored_dtype(&bytes[..header]).is_ok());
            let mut bad = bytes.clone();
            bad[0] ^= 0xFF;
            assert!(matches!(
                stored_dtype(&bad),
                Err(CuszpError::MalformedArchive(f)) if f.what == "bad magic"
            ));
            // It is the strict parsers' own error, not a lookalike.
            assert_eq!(
                stored_dtype(&bad).unwrap_err(),
                decompress(&bad).unwrap_err()
            );
        }
    }

    fn assert_every_finisher_refuses<T: Element>(bytes: &[u8]) {
        let spec = RangeSpec::parse("100:200").unwrap();
        let d = Decode::new(bytes);
        let want = CuszpError::DtypeMismatch {
            stored: stored_dtype(bytes).unwrap().name(),
            requested: T::DTYPE.name(),
        };
        for e in [
            d.strict::<T>().err(),
            d.range(&spec).strict::<T>().err(),
            d.resilient::<T>(FillPolicy::Nan).err(),
            d.range(&spec).resilient::<T>(FillPolicy::Nan).err(),
        ] {
            assert_eq!(e.as_ref(), Some(&want));
        }
    }

    #[test]
    fn the_wrong_type_parameter_is_a_dtype_mismatch() {
        for (bytes, dtype) in archives() {
            match dtype {
                Dtype::F32 => assert_every_finisher_refuses::<f64>(&bytes),
                Dtype::F64 => assert_every_finisher_refuses::<f32>(&bytes),
            }
        }
    }

    fn resilient_lane_sweep<T: Element>(bytes: &[u8]) {
        let spec = RangeSpec::parse("1500:4500").unwrap();
        let (full, dims) = Decode::new(bytes).strict::<T>().unwrap();
        let (want, _) = crate::slice_field(&full, dims, &spec).unwrap();
        for lanes in [1, 2, 5] {
            let pool = WorkerPool::new(lanes);
            let engine = ReconstructEngine::FinePartialSum;
            for (range, want) in [(None, &full), (Some(&spec), &want)] {
                let rf = recover::<T>(bytes, range, FillPolicy::Nan, engine, &pool).unwrap();
                assert!(rf.reports.iter().all(|r| r.status.is_ok()));
                assert_eq!(
                    crate::scalars_to_le(&rf.data),
                    crate::scalars_to_le(want),
                    "{lanes} lanes"
                );
            }
        }
    }

    /// The resilient read walks its chunks on one fresh lane per pool
    /// worker, as the strict one does: on 1, 2 and 5 lanes (more than
    /// the container's chunks) it reads what the strict decode reads.
    #[test]
    fn resilient_reads_the_same_bits_on_any_number_of_lanes() {
        for (bytes, dtype) in archives() {
            match dtype {
                Dtype::F32 => resilient_lane_sweep::<f32>(&bytes),
                Dtype::F64 => resilient_lane_sweep::<f64>(&bytes),
            }
        }
    }
}

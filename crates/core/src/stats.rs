//! Per-compression statistics: stage sizes, ratios, and the selector
//! report — the numbers every benchmark table is built from.

use crate::archive::Archive;
use crate::CodecPlan;
use cuszp_analysis::{CompressibilityReport, WorkflowChoice};

/// Everything measured during one compression.
#[derive(Debug, Clone, Copy)]
pub struct CompressionStats {
    /// Input elements.
    pub n_elements: usize,
    /// Input bytes (f32).
    pub original_bytes: usize,
    /// Total archive bytes.
    pub compressed_bytes: usize,
    /// Bytes of the entropy-coded quant-code payload (before any
    /// lossless wrap).
    pub codes_bytes: usize,
    /// Bytes of the sparse outlier section.
    pub outlier_bytes: usize,
    /// Number of outliers.
    pub n_outliers: usize,
    /// Workflow that was used.
    pub workflow: WorkflowChoice,
    /// The full codec plan the chunk took.
    pub plan: CodecPlan,
    /// The selector's analysis of the quant-code stream.
    pub report: CompressibilityReport,
}

impl CompressionStats {
    pub(crate) fn new(
        n_elements: usize,
        elem_bytes: usize,
        archive: &Archive,
        report: CompressibilityReport,
    ) -> Self {
        let original_bytes = n_elements * elem_bytes;
        let codes_bytes = archive.payload.storage_bytes();
        let outlier_bytes = archive.outliers.storage_bytes();
        let plan = archive.plan();
        Self {
            n_elements,
            original_bytes,
            compressed_bytes: archive.serialized_bytes(),
            codes_bytes,
            outlier_bytes,
            n_outliers: archive.outliers.len(),
            workflow: plan.workflow,
            plan,
            report,
        }
    }

    /// Overall compression ratio.
    pub fn compression_ratio(&self) -> f64 {
        cuszp_metrics::compression_ratio(self.original_bytes, self.compressed_bytes)
    }

    /// Bits of archive per input element.
    pub fn bit_rate(&self) -> f64 {
        cuszp_metrics::bit_rate(self.n_elements, self.compressed_bytes)
    }

    /// Fraction of elements stored as outliers.
    pub fn outlier_fraction(&self) -> f64 {
        if self.n_elements == 0 {
            0.0
        } else {
            self.n_outliers as f64 / self.n_elements as f64
        }
    }
}

impl std::fmt::Display for CompressionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: CR {:.2}x ({} -> {} bytes, {:.3} bits/elem, {:.2}% outliers)",
            self.workflow.name(),
            self.compression_ratio(),
            self.original_bytes,
            self.compressed_bytes,
            self.bit_rate(),
            self.outlier_fraction() * 100.0
        )
    }
}

/// Aggregated statistics for one chunked (v2) compression: the per-chunk
/// [`CompressionStats`] plus container-level totals.
#[derive(Debug, Clone)]
pub struct ChunkedStats {
    /// One entry per chunk, in chunk order.
    pub per_chunk: Vec<CompressionStats>,
}

impl ChunkedStats {
    /// Total input elements across chunks.
    pub fn n_elements(&self) -> usize {
        self.per_chunk.iter().map(|s| s.n_elements).sum()
    }

    /// Total input bytes across chunks.
    pub fn original_bytes(&self) -> usize {
        self.per_chunk.iter().map(|s| s.original_bytes).sum()
    }

    /// Total estimated archive bytes across chunks (per-chunk headers
    /// included, container header excluded).
    pub fn compressed_bytes(&self) -> usize {
        self.per_chunk.iter().map(|s| s.compressed_bytes).sum()
    }

    /// Total outliers across chunks.
    pub fn n_outliers(&self) -> usize {
        self.per_chunk.iter().map(|s| s.n_outliers).sum()
    }

    /// Container-wide compression ratio.
    pub fn compression_ratio(&self) -> f64 {
        cuszp_metrics::compression_ratio(self.original_bytes(), self.compressed_bytes())
    }

    /// Container-wide bits of archive per input element.
    pub fn bit_rate(&self) -> f64 {
        cuszp_metrics::bit_rate(self.n_elements(), self.compressed_bytes())
    }

    /// How many chunks chose each workflow, as `(workflow, count)` pairs
    /// in a fixed order, zero-count entries omitted.
    pub fn workflow_mix(&self) -> Vec<(WorkflowChoice, usize)> {
        [
            WorkflowChoice::Huffman,
            WorkflowChoice::Rle,
            WorkflowChoice::RleVle,
        ]
        .into_iter()
        .map(|wf| {
            (
                wf,
                self.per_chunk.iter().filter(|s| s.workflow == wf).count(),
            )
        })
        .filter(|&(_, n)| n > 0)
        .collect()
    }

    /// How many chunks took each codec plan, as `(label, count)` pairs in
    /// first-occurrence order — the archive's plan mix.
    pub fn plan_mix(&self) -> Vec<(String, usize)> {
        CodecPlan::mix(self.per_chunk.iter().map(|s| s.plan))
    }
}

impl std::fmt::Display for ChunkedStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mix: Vec<String> = self
            .plan_mix()
            .into_iter()
            .map(|(label, n)| format!("{label} x{n}"))
            .collect();
        write!(
            f,
            "{} chunks [{}]: CR {:.2}x ({} -> {} bytes, {:.3} bits/elem, {} outliers)",
            self.per_chunk.len(),
            mix.join(", "),
            self.compression_ratio(),
            self.original_bytes(),
            self.compressed_bytes(),
            self.bit_rate(),
            self.n_outliers()
        )
    }
}

#[cfg(test)]
mod tests {

    use crate::{Compressor, Config, Dims};

    #[test]
    fn stats_are_self_consistent() {
        let data: Vec<f32> = (0..50_000).map(|i| (i as f32 * 0.001).sin()).collect();
        let (archive, stats) = Compressor::new(Config::default())
            .compress_with_stats(&data, Dims::D1(50_000))
            .unwrap();
        assert_eq!(stats.n_elements, 50_000);
        assert_eq!(stats.original_bytes, 200_000);
        assert!(stats.compression_ratio() > 1.0);
        // The stats' compressed size approximates the real archive within
        // a small constant (headers are estimated, not serialized here).
        let real = archive.to_bytes().len();
        let approx = stats.compressed_bytes;
        assert!(
            (real as i64 - approx as i64).unsigned_abs() < 256,
            "estimate {approx} too far from real {real}"
        );
        let display = stats.to_string();
        assert!(display.contains("CR"));
    }
}

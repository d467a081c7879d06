//! Criterion benches for the end-to-end pipelines: compress + decompress
//! under each workflow, on representative synthetic fields (the overall
//! rows of Tables V and VII).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cuszp_analysis::WorkflowChoice;
use cuszp_core::{
    decompress_archive, Compressor, Config, ErrorBound, ReconstructEngine, WorkflowMode,
};
use cuszp_datagen::{dataset_fields, generate, DatasetKind, Scale};

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    let cases = [
        (DatasetKind::CesmAtm, "FSDSC"),
        (DatasetKind::Nyx, "velocity_x"),
    ];
    for (kind, name) in cases {
        let spec = dataset_fields(kind)
            .into_iter()
            .find(|s| s.name == name)
            .unwrap();
        let field = generate(&spec, Scale::Tiny);
        let bytes = field.bytes() as u64;
        for (wf_label, wf) in [
            ("auto", WorkflowMode::Auto),
            ("huffman", WorkflowMode::Force(WorkflowChoice::Huffman)),
            ("rle_vle", WorkflowMode::Force(WorkflowChoice::RleVle)),
        ] {
            let compressor = Compressor::new(Config {
                error_bound: ErrorBound::Relative(1e-2),
                workflow: wf,
                ..Config::default()
            });
            g.throughput(Throughput::Bytes(bytes));
            g.bench_with_input(
                BenchmarkId::new(format!("compress_{wf_label}"), name),
                &field,
                |b, field| {
                    b.iter(|| compressor.compress(&field.data, field.dims).unwrap());
                },
            );
            let archive = compressor.compress(&field.data, field.dims).unwrap();
            g.bench_with_input(
                BenchmarkId::new(format!("decompress_{wf_label}"), name),
                &archive,
                |b, archive| {
                    b.iter(|| {
                        decompress_archive::<f32>(archive, ReconstructEngine::FinePartialSum)
                            .unwrap()
                    });
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);

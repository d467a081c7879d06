//! What both runs share: the reference field the checks compare with, the
//! served range boxes, and the cluster phases.

use crate::env::{Env, EB_REL};
use crate::inputs::{key_name, BoxMaker, Workload, N_KEYS};
use crate::phases::{self, Run};
use crate::util::Budget;

/// Decompresses the chunked archive in full: the reference every served
/// and ranged reply is compared with. Harness work, outside `setup_s`.
pub fn reference_field(run: &mut Run, env: &Env) -> Option<(Vec<f32>, Vec<u8>)> {
    let (field, _) = run
        .gates
        .call("reference decompress", cuszp::decompress(&env.archive))?;
    let f = &env.fields[0];
    let eb = cuszp::ErrorBound::Relative(EB_REL).absolute(&f.data);
    run.gates.within_bound(
        "chunked archive within the error bound",
        &f.data,
        &field,
        eb,
    );
    let raw = field.iter().flat_map(|x| x.to_le_bytes()).collect();
    Some((field, raw))
}

/// The hot box (one box in chunk 0, repeated) and the cold sequence (the
/// same-sized box cycling over every chunk) of the served range phases.
pub fn range_boxes(env: &Env, seed: u64) -> (cuszp::RangeSpec, BoxMaker) {
    let dims = env.fields[0].dims;
    let hot = BoxMaker::new(dims, env.target, seed ^ 0x0068_6f74).in_chunk(0);
    (hot, BoxMaker::new(dims, env.target, seed ^ 0x636f_6c64))
}

/// The cluster phases: rounds of puts and healthy range reads, then — once
/// the owner of a data shard is shut down — rounds of degraded range reads
/// of the same boxes, then the restart and read-back gate.
pub struct ClusterPhases {
    puts: phases::Puts,
    healthy: phases::ClusterReads,
    degraded: phases::ClusterReads,
    victim: usize,
}

/// What the cluster phases measured.
pub struct ClusterOut {
    pub put_s: Vec<f64>,
    pub disk_per_user_byte: f64,
    pub healthy_s: Vec<f64>,
    pub degraded_s: Vec<f64>,
    /// Reads the client rebuilt from parity (`ClusterStats::degraded_reads`).
    pub failovers: f64,
}

impl ClusterPhases {
    pub fn new(run: &Run, env: &Env) -> ClusterPhases {
        let victim = env
            .cluster
            .ring
            .shard_owner(&key_name(0), 0)
            .map_or(1, |n| n.id);
        // Only reads that touch the victim's data shards degrade; the
        // healthy rounds read the same keys so the two compare.
        let keys = phases::keys_with_data_on(env, victim);
        let box_seed = run.seed ^ 0x0062_6f78_6573;
        ClusterPhases {
            puts: phases::Puts::new(run.seed),
            healthy: phases::ClusterReads::new(env, &keys, false, box_seed),
            degraded: phases::ClusterReads::new(env, &keys, true, box_seed),
            victim: victim as usize - 1,
        }
    }

    pub fn healthy_round(
        &mut self,
        run: &mut Run,
        env: &mut Env,
        reference: &[f32],
        puts: usize,
        reads: Budget,
    ) {
        self.puts.run(run, env, puts);
        if run.gates.check(
            "every key stored before the first read",
            self.puts.all_keys_stored(),
        ) {
            self.healthy.run(run, env, reference, reads);
        }
    }

    pub fn degraded_round(
        &mut self,
        run: &mut Run,
        env: &mut Env,
        reference: &[f32],
        reads: Budget,
    ) {
        // Stopping a stopped node does nothing.
        env.cluster.nodes[self.victim].stop();
        self.degraded.run(run, env, reference, reads);
    }

    pub fn finish(self, run: &mut Run, w: &Workload, env: &mut Env) -> ClusterOut {
        let both = self
            .healthy
            .first_replies
            .len()
            .min(self.degraded.first_replies.len());
        run.gates.check(
            "degraded samples == healthy samples",
            both > 0 && self.healthy.first_replies[..both] == self.degraded.first_replies[..both],
        );
        let disk_mean = self.puts.mean_disk_bytes(env);
        let failovers = env.cluster.client.stats().degraded_reads.get() as f64;
        phases::restart_and_read_back(run, env, w.compact_at);
        ClusterOut {
            put_s: self.puts.samples,
            disk_per_user_byte: disk_mean / (N_KEYS * env.archive.len()) as f64,
            healthy_s: self.healthy.samples,
            degraded_s: self.degraded.samples,
            failovers,
        }
    }
}

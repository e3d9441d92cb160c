//! The two workloads: their tenants, seeded input streams, the `fsmd serve`
//! flags they run under, and the request scripts the client replays.
//!
//! Every input is a pure function of the seed.  A tenant's stream is a pool
//! of pre-generated batches replayed cyclically with fresh batch ids, so a
//! long script costs no generation time inside the timed loop and no memory
//! proportional to its length.

use std::path::Path;
use std::sync::Arc;

use fsm_core::{Exec, RegistryConfig, WorkerPool};
use fsm_datagen::{DenseGenerator, QuestConfig, QuestGenerator};
use fsm_fsmd::TenantSpec;
use fsm_storage::BudgetGovernor;
use fsm_types::Batch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Window size of every tenant, in batches.
pub const WINDOW: u32 = 5;
/// Mining worker threads of the server (`--pool`).
pub const POOL_THREADS: usize = 2;
/// Batches generated per tenant; the stream cycles through them.
const POOL_BATCHES: usize = 48;
/// `Algorithm::ALL` indices as the wire carries them.
const VERTICAL: u8 = 3;
const DIRECT_VERTICAL: u8 = 4;

/// Tenants of the `durable-fleet` server.
const FLEET_TENANTS: usize = 32;
/// `--max-resident` of the `durable-fleet` server.
const FLEET_MAX_RESIDENT: usize = 8;
/// Chunk-cache bytes each durable fleet tenant asks for.
const FLEET_CACHE_REQUEST: u64 = 256 << 10;
/// `--cache-total`: below the requests of the resident durable tenants, so
/// the governor has to arbitrate.
const FLEET_CACHE_TOTAL: usize = 512 << 10;
/// A fleet tenant is mined after every this-many ingests it receives.
const FLEET_MINE_EVERY: u64 = 4;
/// Seed of the fleet gateway's tenant ranking and picks.
const GATEWAY_SEED: u64 = 0x00ED_B715;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Dense stream, one disk tenant at cache budget 0.
    DenseDisk,
    /// 32 tenants under eviction pressure, half of them durable.
    DurableFleet,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 2] = [Kind::DenseDisk, Kind::DurableFleet];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DenseDisk => "dense-disk",
            Kind::DurableFleet => "durable-fleet",
        }
    }

    /// Inverse of [`Kind::name`].
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Timed requests per second of `--seconds`: a run replays this rate
    /// times the run length, split over [`Kind::rounds`] rounds, sized so a
    /// run takes about `--seconds` on a 2-core host.  A fixed script (rather
    /// than a time-bounded loop) makes the requests, the answers and the
    /// failure count of a seed repeat exactly from run to run.
    fn requests_per_second(self) -> f64 {
        match self {
            Kind::DenseDisk => 290.0,
            Kind::DurableFleet => 475.0,
        }
    }

    /// Fresh servers per run; every end-to-end metric is the median over
    /// the rounds measured without hypervisor steal (see
    /// `perfbench/README.md`).  Rounds differ by up to a quarter from one
    /// fresh process to the next, so many short rounds beat a few long ones;
    /// `durable-fleet` rounds stay over two thousand requests long because
    /// its durable tenants meet the WAL defect described in the README only
    /// after about a thousand requests of a round.
    pub fn rounds(self) -> usize {
        match self {
            Kind::DenseDisk => 24,
            Kind::DurableFleet => 10,
        }
    }
}

/// One request of a script.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Ingest the tenant's `seq`-th batch (batch id `seq`).
    Ingest { tenant: usize, seq: u64 },
    /// Mine the tenant's current window.
    Mine { tenant: usize },
}

/// The serve flags a workload runs under; the traced run builds its
/// in-process registry from the same values.
#[derive(Debug, Clone)]
pub struct ServerFlags {
    max_resident: Option<usize>,
    cache_total: Option<usize>,
    /// Pass `--spill-root` and `--durable-root` (under the run's work dir).
    lifecycle_dirs: bool,
}

impl ServerFlags {
    /// The `fsmd serve` arguments after `serve`, state rooted under `root`.
    pub fn serve_args(&self, root: &Path) -> Vec<String> {
        let mut args = vec![
            "--listen".to_string(),
            "127.0.0.1:0".to_string(),
            "--pool".to_string(),
            POOL_THREADS.to_string(),
        ];
        if let Some(n) = self.max_resident {
            args.extend(["--max-resident".to_string(), n.to_string()]);
        }
        if let Some(bytes) = self.cache_total {
            args.extend(["--cache-total".to_string(), bytes.to_string()]);
        }
        if self.lifecycle_dirs {
            args.extend(["--spill-root".to_string(), path_arg(&root.join("spill"))]);
            args.extend([
                "--durable-root".to_string(),
                path_arg(&root.join("durable")),
            ]);
        }
        args
    }

    /// The [`RegistryConfig`] `fsmd serve` builds from these flags.
    pub fn registry_config(&self, root: &Path) -> RegistryConfig {
        RegistryConfig {
            exec: Exec::pool(Arc::new(WorkerPool::new(POOL_THREADS))),
            governor: self.cache_total.map(BudgetGovernor::new),
            durable_root: self.lifecycle_dirs.then(|| root.join("durable")),
            max_pending_batches: RegistryConfig::DEFAULT_MAX_PENDING,
            max_resident: self.max_resident,
            max_resident_bytes: None,
            spill_root: self.lifecycle_dirs.then(|| root.join("spill")),
        }
    }
}

fn path_arg(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

/// One tenant: its wire spec and its cyclic batch pool.
#[derive(Debug)]
pub struct Tenant {
    pub spec: TenantSpec,
    pool: Vec<Batch>,
}

impl Tenant {
    /// The tenant's `seq`-th batch.
    pub fn batch(&self, seq: u64) -> Batch {
        let source = &self.pool[(seq % self.pool.len() as u64) as usize];
        Batch::from_transactions(seq, source.transactions().to_vec())
    }
}

/// A workload fully materialised for one seed.
#[derive(Debug)]
pub struct Plan {
    pub flags: ServerFlags,
    pub tenants: Vec<Tenant>,
    /// Set-up requests: fill every window, then mine each tenant once.
    pub warmup: Vec<Op>,
    /// The timed script.
    pub timed: Vec<Op>,
}

impl Plan {
    /// Builds the workload for `seed`, with the timed script of one round
    /// sized for a run of `seconds`.
    pub fn new(kind: Kind, seed: u64, seconds: f64) -> Self {
        let requests = kind.requests_per_second() * seconds / kind.rounds() as f64;
        let timed_len = (requests.ceil() as usize).max(2);
        let (flags, tenants) = match kind {
            Kind::DenseDisk => (plain_flags(), vec![dense_disk_tenant(seed)]),
            Kind::DurableFleet => (
                ServerFlags {
                    max_resident: Some(FLEET_MAX_RESIDENT),
                    cache_total: Some(FLEET_CACHE_TOTAL),
                    lifecycle_dirs: true,
                },
                (0..FLEET_TENANTS).map(|i| fleet_tenant(seed, i)).collect(),
            ),
        };
        let mut sent = vec![0u64; tenants.len()];
        let mut warmup = Vec::new();
        for (tenant, sent) in sent.iter_mut().enumerate() {
            for _ in 0..WINDOW {
                warmup.push(Op::Ingest { tenant, seq: *sent });
                *sent += 1;
            }
            warmup.push(Op::Mine { tenant });
        }
        let timed = match kind {
            Kind::DenseDisk => {
                let mut timed = Vec::with_capacity(timed_len);
                while timed.len() < timed_len {
                    timed.push(Op::Ingest {
                        tenant: 0,
                        seq: sent[0],
                    });
                    timed.push(Op::Mine { tenant: 0 });
                    sent[0] += 1;
                }
                timed
            }
            Kind::DurableFleet => fleet_script(timed_len, &mut sent),
        };
        Self {
            flags,
            tenants,
            warmup,
            timed,
        }
    }

    /// Transactions an ingest op carries.
    pub fn op_transactions(&self, op: Op) -> usize {
        match op {
            Op::Ingest { tenant, seq } => {
                let pool = &self.tenants[tenant].pool;
                pool[(seq % pool.len() as u64) as usize].len()
            }
            Op::Mine { .. } => 0,
        }
    }

    /// The batches tenant `tenant` receives over `ops`, in order.
    pub fn tenant_batches<'a>(
        &'a self,
        tenant: usize,
        ops: impl Iterator<Item = &'a Op> + 'a,
    ) -> impl Iterator<Item = Batch> + 'a {
        ops.filter_map(move |op| match *op {
            Op::Ingest { tenant: t, seq } if t == tenant => Some(self.tenants[t].batch(seq)),
            _ => None,
        })
    }
}

/// Indices `i` where `ops[i]` is an ingest directly followed by a mine of
/// the same tenant: one slide, whose latency is the sum of the two.
pub fn slides(ops: &[Op]) -> Vec<usize> {
    ops.windows(2)
        .enumerate()
        .filter_map(|(i, pair)| match (pair[0], pair[1]) {
            (Op::Ingest { tenant: a, .. }, Op::Mine { tenant: b }) if a == b => Some(i),
            _ => None,
        })
        .collect()
}

fn plain_flags() -> ServerFlags {
    ServerFlags {
        max_resident: None,
        cache_total: None,
        lifecycle_dirs: false,
    }
}

/// Derives an independent generator seed from the workload seed.
fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn spec(tenant: &str, algorithm: u8, minsup: f64, catalog_n: u32) -> TenantSpec {
    TenantSpec {
        tenant: tenant.to_string(),
        algorithm,
        window_batches: WINDOW,
        minsup_absolute: false,
        minsup: minsup.to_bits(),
        catalog_kind: 0,
        catalog_n,
        backend: 0,
        cache_budget: 0,
        durable: false,
        delta: false,
    }
}

/// connect4-like dense transactions on the disk backend at cache budget 0
/// (`fsmd drive`'s default, the paper's disk-resident setting).
fn dense_disk_tenant(seed: u64) -> Tenant {
    let generator = DenseGenerator {
        num_items: 130,
        avg_transaction_len: 43.0,
        num_blocks: 8,
        seed: derive(seed, 3),
    };
    let mut spec = spec("dense", DIRECT_VERTICAL, 0.15, 130);
    spec.backend = 1;
    Tenant {
        spec,
        pool: generator.generate_batches(POOL_BATCHES, 60),
    }
}

/// Even tenants: durable disk, direct-vertical, a cache request the
/// governor must arbitrate.  Odd tenants: volatile memory, vertical (so the
/// §3.5 connectivity post-processing runs).
fn fleet_tenant(seed: u64, index: usize) -> Tenant {
    const ITEMS: u32 = 60;
    let mut generator = QuestGenerator::new(QuestConfig {
        num_items: ITEMS,
        avg_transaction_len: 8.0,
        avg_pattern_len: 4.0,
        num_patterns: 30,
        corruption: 0.25,
        seed: derive(seed, 100 + index as u64),
    });
    let name = format!("t{index:02}");
    let mut spec = if index.is_multiple_of(2) {
        let mut spec = spec(&name, DIRECT_VERTICAL, 0.03, ITEMS);
        spec.backend = 1;
        spec.cache_budget = FLEET_CACHE_REQUEST;
        spec.durable = true;
        spec
    } else {
        spec(&name, VERTICAL, 0.03, ITEMS)
    };
    spec.window_batches = WINDOW;
    Tenant {
        spec,
        pool: generator.generate_batches(12, 150),
    }
}

/// A gateway's request stream: tenants picked with probability ~ 1/rank
/// over a seeded ranking; each pick ingests that tenant's next batch, and
/// every [`FLEET_MINE_EVERY`]th ingest of a tenant is followed by a mine.
///
/// The gateway is seeded with [`GATEWAY_SEED`], not the workload seed: the
/// request order alone decides when tenants spill and checkpoint, and with
/// it which durable tenants meet the WAL defect described in
/// `perfbench/README.md`.  Fixing the order makes that failure count the
/// same on every seed, while `--seed` varies every tenant's stream.
fn fleet_script(len: usize, sent: &mut [u64]) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(GATEWAY_SEED);
    let mut ranked: Vec<usize> = (0..sent.len()).collect();
    for i in (1..ranked.len()).rev() {
        ranked.swap(i, rng.gen_range(0..=i));
    }
    let weights: Vec<f64> = (1..=ranked.len()).map(|rank| 1.0 / rank as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut ops = Vec::with_capacity(len + 1);
    let mut received = vec![0u64; sent.len()];
    while ops.len() < len {
        let mut ticket = rng.gen_range(0.0..total);
        let mut rank = 0;
        while rank + 1 < weights.len() && ticket >= weights[rank] {
            ticket -= weights[rank];
            rank += 1;
        }
        let tenant = ranked[rank];
        ops.push(Op::Ingest {
            tenant,
            seq: sent[tenant],
        });
        sent[tenant] += 1;
        received[tenant] += 1;
        if received[tenant].is_multiple_of(FLEET_MINE_EVERY) {
            ops.push(Op::Mine { tenant });
        }
    }
    ops
}

//! The workloads and the servers they run against.
//!
//! Every server is the production reactor tier, started in-process with
//! the public constructors and their default configurations; the only
//! thing the benchmark adds is an optional [`crate::trace`] wrapper
//! around each route table in traced runs.

use crate::schedule::Traffic;
use crate::trace::{wrap, TraceLog};
use etude_models::{ModelConfig, ModelKind, SbrModel};
use etude_obs::Recorder;
use etude_serve::reactor::{self, ReactorConfig};
use etude_serve::rustserver::{Handler, ServerHandle};
use etude_serve::{
    model_routes_continuous, overload_routes, router_routes, shard_backend_routes,
    ContinuousConfig, HttpClient, OverloadConfig, RouterConfig, ShardTopology,
};
use etude_tensor::rng::Initializer;
use etude_tensor::Device;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Recommendations per answer on every tier.
pub const K: usize = 21;
/// Seed of the shared session-query hash embedding.
pub const QUERY_SEED: u64 = 0x5eed;
/// Seed of the retrieval tiers' embedding tables.
const TABLE_SEED: u64 = 4242;

/// Which serving tier a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `model_routes_continuous` over a JIT-compiled model.
    Model(ModelKind),
    /// `overload_routes`: admission, brownout ladder, exact/int8 scan.
    Overload,
    /// `router_routes` over two `shard_backend_routes` groups; one group
    /// is shut down when the stress phase starts.
    Sharded,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Catalog size C.
    pub catalog: usize,
    /// Embedding dimension d (the paper's ⌈C^¼⌉).
    pub dim: usize,
    /// Serving tier.
    pub tier: Tier,
    /// Base-phase rate, requests per second.
    pub base_rps: f64,
    /// Stress-phase rate, requests per second.
    pub stress_rps: f64,
}

impl Workload {
    /// The traffic this workload's schedule carries.
    pub fn traffic(&self) -> Traffic {
        Traffic {
            catalog: self.catalog,
            base_rps: self.base_rps,
            stress_rps: self.stress_rps,
        }
    }
}

/// The workloads. Rates are absolute, sized on a 2-vCPU x86-64 box (see
/// `NOTES.md` for the measured capacities): the stress phase sits at
/// twice capacity or more, or, for the sharded workload, holds the base
/// rate and loses a shard group. The base phase sits at about 40% of
/// capacity on groceries and about 20% on the retrieval tiers, where at
/// 40% a slower host moved the base median by tens of percent from one
/// run to the next. The retrieval catalogs stay below the pool's
/// parallel-scan threshold: above it the base median swings between
/// runs (see `NOTES.md`, finding 3).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "groceries",
        catalog: 10_000,
        dim: 10,
        tier: Tier::Model(ModelKind::Gru4Rec),
        base_rps: 1_200.0,
        stress_rps: 5_600.0,
    },
    Workload {
        name: "flash-crowd",
        catalog: 30_000,
        dim: 14,
        tier: Tier::Overload,
        base_rps: 500.0,
        stress_rps: 5_000.0,
    },
    Workload {
        name: "sharded",
        catalog: 50_000,
        dim: 15,
        tier: Tier::Sharded,
        base_rps: 175.0,
        stress_rps: 175.0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What answers are checked against.
pub enum Reference {
    /// The served model (answers come from `recommend_compiled`).
    Model {
        /// The model.
        model: Arc<dyn SbrModel>,
    },
    /// The full embedding table (exact scans over it, or over the rows
    /// of the one shard group that answered a degraded router answer).
    Table {
        /// `[catalog, dim]` row-major table.
        table: Vec<f32>,
        /// Catalog rows of each shard group (sharded workload only).
        groups: Vec<Range<usize>>,
    },
}

/// A running server set for one workload.
pub struct Rig {
    /// Address clients talk to.
    pub addr: SocketAddr,
    /// Recorder of the front server (its `/stats`).
    pub recorder: Arc<Recorder>,
    /// Reference for answer verification.
    pub reference: Reference,
    servers: Vec<ServerHandle>,
    victim: Option<ServerHandle>,
}

impl Rig {
    /// Starts `w`'s servers and waits for the first 200 on `/ping`.
    /// `trace` wraps every route table.
    pub fn start(w: &Workload, trace: Option<&Arc<TraceLog>>) -> std::io::Result<Rig> {
        let recorder = Arc::new(Recorder::new());
        let front = |handler: Handler, leg: Option<u8>| match trace {
            Some(log) => wrap(handler, Arc::clone(log), leg),
            None => handler,
        };
        let rig = match w.tier {
            Tier::Model(kind) => {
                let cfg = ModelConfig::new(w.catalog);
                assert_eq!(cfg.embedding_dim, w.dim, "workload d follows ⌈C^¼⌉");
                let model: Arc<dyn SbrModel> = Arc::from(kind.build(&cfg));
                let handler = model_routes_continuous(
                    Arc::clone(&model),
                    Device::cpu(),
                    true,
                    ContinuousConfig::default(),
                    Arc::clone(&recorder),
                    None,
                );
                let server = reactor::start_observed(
                    ReactorConfig::default(),
                    front(handler, None),
                    Arc::clone(&recorder),
                )?;
                Rig {
                    addr: server.addr(),
                    recorder,
                    reference: Reference::Model { model },
                    servers: vec![server],
                    victim: None,
                }
            }
            Tier::Overload => {
                let table = table(w.catalog, w.dim);
                let handler = overload_routes(
                    table.clone(),
                    w.catalog,
                    w.dim,
                    QUERY_SEED,
                    OverloadConfig::default(),
                    Arc::clone(&recorder),
                );
                let server = reactor::start_observed(
                    ReactorConfig::default(),
                    front(handler, None),
                    Arc::clone(&recorder),
                )?;
                Rig {
                    addr: server.addr(),
                    recorder,
                    reference: Reference::Table {
                        table,
                        groups: Vec::new(),
                    },
                    servers: vec![server],
                    victim: None,
                }
            }
            Tier::Sharded => {
                let table = table(w.catalog, w.dim);
                let mut topo = ShardTopology::partition(w.catalog, w.dim, QUERY_SEED, 2);
                let mut backends = Vec::with_capacity(2);
                for i in 0..topo.groups.len() {
                    let pod = Arc::new(Recorder::with_pod(i as u32));
                    let handler = shard_backend_routes(
                        topo.shard_of(&table, i),
                        w.catalog,
                        QUERY_SEED,
                        K,
                        Arc::clone(&pod),
                    );
                    let server = reactor::start_observed(
                        ReactorConfig::default(),
                        front(handler, Some(i as u8)),
                        pod,
                    )?;
                    topo.groups[i].replicas.push(server.addr());
                    backends.push(server);
                }
                let groups = topo
                    .groups
                    .iter()
                    .map(|g| g.base as usize..g.base as usize + g.rows)
                    .collect();
                let handler = router_routes(topo, RouterConfig::default(), Arc::clone(&recorder));
                let router = reactor::start_observed(
                    ReactorConfig::default(),
                    front(handler, None),
                    Arc::clone(&recorder),
                )?;
                let victim = backends.pop();
                let mut servers = vec![router];
                servers.extend(backends);
                Rig {
                    addr: servers[0].addr(),
                    recorder,
                    reference: Reference::Table { table, groups },
                    servers,
                    victim,
                }
            }
        };
        wait_ready(rig.addr)?;
        Ok(rig)
    }

    /// Takes the backend that the stress phase shuts down (sharded
    /// workload only).
    pub fn take_victim(&mut self) -> Option<ServerHandle> {
        self.victim.take()
    }

    /// Stops every server and joins its threads.
    pub fn shutdown(mut self) {
        if let Some(v) = self.victim.take() {
            v.shutdown();
        }
        for s in self.servers.drain(..) {
            s.shutdown();
        }
    }
}

/// A seeded `[c, d]` embedding table.
pub fn table(c: usize, d: usize) -> Vec<f32> {
    Initializer::new(TABLE_SEED)
        .embedding(c, d)
        .into_vec()
        .expect("dense table")
}

/// Polls `/ping` until it answers 200.
fn wait_ready(addr: SocketAddr) -> std::io::Result<()> {
    let give_up = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(mut c) = HttpClient::connect_with_timeout(addr, Duration::from_secs(5)) {
            if let Ok(r) = c.request(&etude_serve::http::Request::get("/ping")) {
                if r.status == 200 {
                    return Ok(());
                }
            }
        }
        if Instant::now() > give_up {
            return Err(std::io::Error::other("server never answered /ping"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

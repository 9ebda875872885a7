//! The three workloads: what each runs, and why.
//!
//! Every workload runs AdaptiveFL single-threaded from one seed, and
//! evaluates either after every round or only after the last one, so
//! all round intervals of a workload are alike.

use adaptivefl_comm::{FaultPlan, SimTransport, WireCodec};
use adaptivefl_core::methods::{FlMethod, MethodKind};
use adaptivefl_core::sim::{SimConfig, Simulation};
use adaptivefl_core::{PerfectTransport, Transport};
use adaptivefl_data::{Partition, SynthSpec};
use adaptivefl_device::testbed::paper_testbed;
use adaptivefl_device::DeviceFleet;
use adaptivefl_models::ModelConfig;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ResNet18-fast on SynCIFAR-10, Dirichlet(0.5), 100 clients, 10
    /// per round, lossless link, final-round eval only: dense 3×3 conv
    /// and batch-norm training dominate.
    CifarResnet,
    /// MobileNetV2-fast (width 0.25) on SynWidar by group, the
    /// 17-device paper test-bed, 10 per round, lossless link,
    /// final-round eval only: depthwise and 1×1 convs dominate.
    WidarMobilenet,
    /// ResNet18-fast, 200 clients, 30 per round, one 8-sample batch
    /// each, faulty dense-codec `SimTransport`, eval after every round:
    /// server-side aggregation, evaluation and per-job fixed costs
    /// dominate.
    ServerFanin,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        [Self::CifarResnet, Self::WidarMobilenet, Self::ServerFanin]
            .into_iter()
            .find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Self::CifarResnet => "cifar_resnet",
            Self::WidarMobilenet => "widar_mobilenet",
            Self::ServerFanin => "server_fanin",
        }
    }

    /// Federated rounds in one measured run.
    pub fn rounds(self) -> usize {
        match self {
            Self::CifarResnet => 13,
            Self::WidarMobilenet => 13,
            Self::ServerFanin => 12,
        }
    }

    /// Nominal wall seconds of one measured run (set-up included) on
    /// the reference host; sizes the repetition count from `--seconds`
    /// so the work done depends only on the arguments.
    pub fn nominal_run_seconds(self) -> f64 {
        match self {
            Self::CifarResnet => 8.0,
            Self::WidarMobilenet => 8.5,
            Self::ServerFanin => 8.5,
        }
    }

    /// The synthetic dataset.
    pub fn spec(self) -> SynthSpec {
        match self {
            Self::CifarResnet | Self::ServerFanin => SynthSpec {
                input: (3, 8, 8),
                ..SynthSpec::cifar10_like()
            },
            Self::WidarMobilenet => SynthSpec {
                input: (1, 8, 8),
                signal: 1.6,
                group_shift: 0.5,
                ..SynthSpec::widar_like()
            },
        }
    }

    /// How the data is split over clients.
    pub fn partition(self) -> Partition {
        match self {
            Self::CifarResnet | Self::ServerFanin => Partition::Dirichlet(0.5),
            Self::WidarMobilenet => Partition::ByGroup,
        }
    }

    /// The simulation configuration at `seed` with `rounds` rounds.
    pub fn cfg(self, seed: u64, rounds: usize) -> SimConfig {
        let spec = self.spec();
        let model = match self {
            Self::CifarResnet | Self::ServerFanin => ModelConfig {
                input: spec.input,
                ..ModelConfig::resnet18_fast(spec.classes)
            },
            Self::WidarMobilenet => ModelConfig {
                input: spec.input,
                ..ModelConfig::mobilenet_v2_fast(spec.classes)
            },
        };
        let mut cfg = SimConfig::fast(model, seed);
        cfg.rounds = rounds;
        cfg.eval_every = rounds;
        match self {
            Self::CifarResnet => {}
            Self::WidarMobilenet => {
                cfg.num_clients = 17;
                cfg.samples_per_client = 16;
                cfg.test_samples = 200;
            }
            Self::ServerFanin => {
                cfg.num_clients = 200;
                cfg.clients_per_round = 30;
                cfg.samples_per_client = 8;
                cfg.test_samples = 200;
                cfg.local.epochs = 1;
                cfg.local.batch_size = 8;
                cfg.eval_every = 1;
            }
        }
        cfg
    }

    /// The link every run of this workload uses.
    pub fn transport(self) -> Box<dyn Transport> {
        match self {
            Self::CifarResnet | Self::WidarMobilenet => Box::new(PerfectTransport),
            Self::ServerFanin => Box::new(
                SimTransport::new()
                    .with_threads(1)
                    .with_codec(WireCodec::Dense)
                    .with_faults(FaultPlan {
                        upload_drop: 0.04,
                        straggler_prob: 0.10,
                        crash_prob: 0.04,
                        truncate_prob: 0.03,
                        ..FaultPlan::none()
                    }),
            ),
        }
    }

    /// The device fleet replacing the generated one, if any.
    pub fn fleet(self, cfg: &SimConfig) -> Option<DeviceFleet> {
        (self == Self::WidarMobilenet)
            .then(|| paper_testbed(cfg.model.num_params(&cfg.model.full_plan()), cfg.seed))
    }

    /// Everything a run needs before its first round: data, fleet,
    /// pool and method state. This is what `setup_s` times.
    pub fn setup(self, cfg: &SimConfig) -> (Simulation, Box<dyn FlMethod>) {
        let mut sim = Simulation::prepare(cfg, &self.spec(), self.partition());
        if let Some(fleet) = self.fleet(cfg) {
            sim = sim.with_fleet(fleet);
        }
        let method = MethodKind::AdaptiveFl.instantiate(sim.env());
        (sim, method)
    }
}

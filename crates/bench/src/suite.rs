//! Shared experiment plumbing: calibrated traces, design runs, and the
//! common seeds that make every figure reproducible.

use duet_sim::baselines;
use duet_sim::cnn::run_cnn;
use duet_sim::config::{ArchConfig, ExecutorFeatures};
use duet_sim::energy::EnergyTable;
use duet_sim::report::ModelPerf;
use duet_sim::rnn::run_rnn;
use duet_sim::trace::{ConvLayerTrace, RnnLayerTrace};
use duet_tensor::rng;
use duet_workloads::models::ModelZoo;
use duet_workloads::sparsity;

/// The seed every experiment derives its randomness from.
pub const SUITE_SEED: u64 = 2020;

/// A fully-specified experiment suite: architecture, energy table, and
/// per-model calibrated traces.
#[derive(Debug, Clone)]
pub struct Suite {
    /// The DUET architecture configuration.
    pub config: ArchConfig,
    /// The energy constant table.
    pub energy: EnergyTable,
}

impl Suite {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Self {
            config: ArchConfig::duet(),
            energy: EnergyTable::default(),
        }
    }

    /// Calibrated CONV traces for a CNN benchmark.
    pub fn cnn_traces(&self, model: ModelZoo) -> Vec<ConvLayerTrace> {
        let mut r = rng::seeded(SUITE_SEED ^ model.name().len() as u64);
        sparsity::cnn_traces(model, &mut r)
    }

    /// Calibrated RNN traces for an RNN benchmark.
    pub fn rnn_traces(&self, model: ModelZoo) -> Vec<RnnLayerTrace> {
        let mut r = rng::seeded(SUITE_SEED ^ (model.name().len() as u64) << 8);
        sparsity::rnn_traces(model, &mut r)
    }

    /// Runs a CNN benchmark under the given Executor features.
    pub fn run_cnn(&self, model: ModelZoo, features: ExecutorFeatures) -> ModelPerf {
        let traces = self.cnn_traces(model);
        run_cnn(
            model.name(),
            &traces,
            &self.config.with_features(features),
            &self.energy,
        )
    }

    /// Runs an RNN benchmark (dual-module or BASE).
    pub fn run_rnn(&self, model: ModelZoo, dual: bool) -> ModelPerf {
        let traces = self.rnn_traces(model);
        run_rnn(model.name(), &traces, &self.config, &self.energy, dual)
    }

    /// Runs a CNN benchmark on one of the comparison designs.
    pub fn run_baseline(&self, model: ModelZoo, design: &str) -> ModelPerf {
        let traces = self.cnn_traces(model);
        match design {
            "Eyeriss" => baselines::run_eyeriss(model.name(), &traces, &self.config, &self.energy),
            "Cnvlutin" => {
                baselines::run_cnvlutin(model.name(), &traces, &self.config, &self.energy)
            }
            "SnaPEA" => baselines::run_snapea(model.name(), &traces, &self.config, &self.energy),
            "Predict" => baselines::run_predict(model.name(), &traces, &self.config, &self.energy),
            "Predict+Cnvlutin" => {
                baselines::run_predict_cnvlutin(model.name(), &traces, &self.config, &self.energy)
            }
            other => panic!("unknown design {other}"),
        }
    }
}

impl Default for Suite {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_reproducible() {
        let s = Suite::paper();
        let a = s.cnn_traces(ModelZoo::AlexNet);
        let b = s.cnn_traces(ModelZoo::AlexNet);
        assert_eq!(a, b);
    }

    #[test]
    fn duet_beats_base_on_alexnet() {
        let s = Suite::paper();
        let base = s.run_cnn(ModelZoo::AlexNet, ExecutorFeatures::base());
        let duet = s.run_cnn(ModelZoo::AlexNet, ExecutorFeatures::duet());
        let speedup = duet.speedup_over(&base);
        assert!(speedup > 1.5, "speedup {speedup}");
    }

    #[test]
    fn all_baselines_run() {
        let s = Suite::paper();
        for d in [
            "Eyeriss",
            "Cnvlutin",
            "SnaPEA",
            "Predict",
            "Predict+Cnvlutin",
        ] {
            let p = s.run_baseline(ModelZoo::AlexNet, d);
            assert_eq!(p.design, d);
            assert!(p.total_latency_cycles > 0);
        }
    }

    #[test]
    fn rnn_dual_beats_base() {
        let s = Suite::paper();
        let base = s.run_rnn(ModelZoo::LstmPtb, false);
        let dual = s.run_rnn(ModelZoo::LstmPtb, true);
        assert!(dual.speedup_over(&base) > 1.3);
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;

    #[test]
    #[should_panic(expected = "unknown design")]
    fn unknown_baseline_panics() {
        Suite::paper().run_baseline(ModelZoo::AlexNet, "NotADesign");
    }

    #[test]
    fn rnn_traces_are_reproducible() {
        let s = Suite::paper();
        assert_eq!(
            s.rnn_traces(ModelZoo::GruPtb),
            s.rnn_traces(ModelZoo::GruPtb)
        );
    }
}

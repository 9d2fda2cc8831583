//! Inputs of every workload: the four Table 2 dataset analogs and the
//! scheduler query mix, derived from the workload seed alone.

use crate::layers;
use predict_algorithms::{ConnectedComponentsWorkload, PageRankWorkload, Workload};
use predict_core::{PredictRequest, PredictorConfig};
use predict_graph::datasets::{Dataset, DatasetConfig, DatasetScale};
use predict_graph::CsrGraph;
use std::sync::Arc;

/// Seed domains: a mix derived from `--heldout-seed n` never shares its
/// predictor seeds with the mix of `--seed n`.
const TUNING_DOMAIN: u64 = 0x7475_6e69_6e67;
const HELDOUT_DOMAIN: u64 = 0x6865_6c64_6f75;

/// splitmix64: a bijective mixer, so distinct inputs give distinct seeds.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The root of every predictor seed one run uses.
#[derive(Debug, Clone, Copy)]
pub struct MixSeed(u64);

impl MixSeed {
    pub fn new(seed: u64, heldout: bool) -> Self {
        let domain = if heldout {
            HELDOUT_DOMAIN
        } else {
            TUNING_DOMAIN
        };
        MixSeed(mix64(seed ^ mix64(domain)))
    }

    /// Predictor seed of dataset `d` in mix `k`. The low 48 bits keep
    /// `seed + i` (the training-ratio seeds) far from overflow.
    fn predictor_seed(self, d: usize, k: usize) -> u64 {
        mix64(self.0 ^ mix64(((d as u64) << 32) | k as u64)) >> 16
    }
}

/// The generated Table 2 analogs, in `Dataset::ALL` order.
pub struct Datasets(pub Vec<(Dataset, Arc<CsrGraph>)>);

impl Datasets {
    /// Generates every dataset, timing each `DatasetConfig::generate` call.
    pub fn generate(scale: DatasetScale) -> Self {
        Datasets(
            Dataset::ALL
                .iter()
                .map(|&d| {
                    let config = DatasetConfig::new(d, scale);
                    let graph = {
                        let _span = layers::span("graph.generate");
                        config.generate()
                    };
                    (d, Arc::new(graph))
                })
                .collect(),
        )
    }
}

/// `count` round mixes. Mix `k` holds one PageRank (ε = 0.01) and one
/// connected-components query per dataset, dataset-major, so the two
/// queries on a dataset share its samples; every dataset of every mix has
/// its own predictor seed. Every query uses the paper's default
/// configuration (sampling ratio 0.1, training ratios 0.05/0.1/0.15/0.2).
/// Top-k and semi-clustering stay out: top-k on the Twitter analog alone
/// takes 4–6 s per prediction, two thirds of a round, and one
/// semi-clustering prediction there takes over 12 s.
pub fn mixes(datasets: &Datasets, seed: MixSeed, count: usize) -> Vec<Vec<PredictRequest>> {
    (0..count)
        .map(|k| {
            let mut out = Vec::new();
            for (d, (dataset, graph)) in datasets.0.iter().enumerate() {
                let config = PredictorConfig::default().with_seed(seed.predictor_seed(d, k));
                let workloads: [Arc<dyn Workload>; 2] = [
                    Arc::new(PageRankWorkload::with_epsilon(0.01, graph.num_vertices())),
                    Arc::new(ConnectedComponentsWorkload),
                ];
                for workload in workloads {
                    out.push(
                        PredictRequest::new(dataset.prefix(), Arc::clone(graph), workload)
                            .with_config(config.clone()),
                    );
                }
            }
            out
        })
        .collect()
}

/// A short label of a query for failure reports, e.g. `TW/PR#12345`.
pub fn label(request: &PredictRequest) -> String {
    let seed = request.config.as_ref().map_or(0, |c| c.seed);
    format!("{}/{}#{seed}", request.dataset, request.workload.name())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_between_domains_datasets_and_mixes() {
        let a = MixSeed::new(1, false);
        let b = MixSeed::new(1, true);
        assert_ne!(a.predictor_seed(0, 0), b.predictor_seed(0, 0));
        assert_ne!(a.predictor_seed(0, 0), a.predictor_seed(1, 0));
        assert_ne!(a.predictor_seed(0, 0), a.predictor_seed(0, 1));
        assert_ne!(
            a.predictor_seed(0, 0),
            MixSeed::new(2, false).predictor_seed(0, 0)
        );
        assert_eq!(
            a.predictor_seed(2, 1),
            MixSeed::new(1, false).predictor_seed(2, 1)
        );
    }
}

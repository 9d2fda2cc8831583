//! Induced subgraph extraction.
//!
//! Sampling techniques select a set of vertices; the sample *graph* the paper
//! runs on is the subgraph induced by that set (all edges of the original
//! graph whose endpoints are both selected). [`induced_subgraph`] extracts
//! that graph with densely renumbered vertex ids and returns a
//! [`SubgraphMapping`] so per-vertex results on the sample can be mapped back
//! to original vertex ids (needed e.g. when top-k ranking runs on the sample
//! of the PageRank output).

use crate::csr::CsrGraph;
use crate::types::VertexId;
use serde::{Deserialize, Serialize, Value};

/// Mapping between the dense vertex ids of an induced subgraph and the vertex
/// ids of the graph it was extracted from.
///
/// Serialized as `to_original` plus the original graph's vertex count:
/// `to_sample` is as long as the *full* graph and follows from the rest,
/// so deserialization rebuilds it (rejecting out-of-range or duplicate
/// original ids) instead of persisting it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubgraphMapping {
    /// `to_original[new_id] = original_id`.
    to_original: Vec<VertexId>,
    /// `to_sample[original_id] = Some(new_id)` for selected vertices.
    to_sample: Vec<Option<VertexId>>,
}

impl SubgraphMapping {
    /// Rebuilds a mapping from its subgraph → original ids over a graph of
    /// `original_vertices` vertices; `Err` if an id is out of range or
    /// selected twice.
    fn from_original_ids(
        to_original: Vec<VertexId>,
        original_vertices: usize,
    ) -> Result<Self, String> {
        if original_vertices > VertexId::MAX as usize + 1 {
            return Err(format!(
                "original vertex count {original_vertices} exceeds the vertex id range"
            ));
        }
        let mut to_sample: Vec<Option<VertexId>> = vec![None; original_vertices];
        for (new_id, &v) in to_original.iter().enumerate() {
            let slot = to_sample
                .get_mut(v as usize)
                .ok_or_else(|| format!("original id {v} out of range 0..{original_vertices}"))?;
            if slot.is_some() {
                return Err(format!("original id {v} mapped twice"));
            }
            *slot = Some(new_id as VertexId);
        }
        Ok(SubgraphMapping {
            to_original,
            to_sample,
        })
    }

    /// Original vertex id for a subgraph vertex id.
    ///
    /// # Panics
    ///
    /// Panics if `sample_id` is out of range for the subgraph.
    pub fn original_id(&self, sample_id: VertexId) -> VertexId {
        self.to_original[sample_id as usize]
    }

    /// Subgraph vertex id for an original vertex id, or `None` if that vertex
    /// was not selected.
    pub fn sample_id(&self, original_id: VertexId) -> Option<VertexId> {
        self.to_sample.get(original_id as usize).copied().flatten()
    }

    /// Number of vertices in the subgraph.
    pub fn num_sampled(&self) -> usize {
        self.to_original.len()
    }

    /// Iterates over `(sample_id, original_id)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.to_original
            .iter()
            .enumerate()
            .map(|(s, &o)| (s as VertexId, o))
    }
}

impl Serialize for SubgraphMapping {
    fn serialize_value(&self) -> Value {
        Value::Map(vec![
            (
                "to_original".to_string(),
                self.to_original.serialize_value(),
            ),
            (
                "original_vertices".to_string(),
                self.to_sample.len().serialize_value(),
            ),
        ])
    }
}

impl Deserialize for SubgraphMapping {
    fn deserialize_value(value: &Value) -> Result<Self, serde::Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::Error::msg("SubgraphMapping: expected a map"))?;
        let to_original = Vec::deserialize_value(serde::get_field(entries, "to_original")?)?;
        let original_vertices =
            usize::deserialize_value(serde::get_field(entries, "original_vertices")?)?;
        Self::from_original_ids(to_original, original_vertices)
            .map_err(|e| serde::Error::msg(format!("SubgraphMapping: {e}")))
    }
}

/// Extracts the subgraph induced by `vertices` (duplicates are ignored; order
/// determines the new dense ids). Edge weights are preserved.
///
/// The sample graph's CSR is assembled directly — no intermediate edge-list
/// materialization. Because the selected vertices are visited in ascending
/// new-id order and each adjacency in neighbor order, the surviving edges are
/// emitted already grouped by source in CSR order: the out-adjacency is a
/// single append pass, and the in-adjacency follows from the same counting
/// build a full-graph construction uses. Neighbor order is byte-identical to
/// building the equivalent edge list and freezing it (pinned by the
/// `induced_subgraph_matches_edge_list_reference` property test).
pub fn induced_subgraph(graph: &CsrGraph, vertices: &[VertexId]) -> (CsrGraph, SubgraphMapping) {
    let mut to_sample: Vec<Option<VertexId>> = vec![None; graph.num_vertices()];
    let mut to_original: Vec<VertexId> = Vec::with_capacity(vertices.len());
    for &v in vertices {
        let slot = &mut to_sample[v as usize];
        if slot.is_none() {
            *slot = Some(to_original.len() as VertexId);
            to_original.push(v);
        }
    }

    // Upper bound on the surviving edge count: the selected vertices' full
    // out-degrees.
    let capacity: usize = to_original.iter().map(|&v| graph.out_degree(v)).sum();
    let mut out_offsets: Vec<usize> = Vec::with_capacity(to_original.len() + 1);
    out_offsets.push(0);
    let mut out_targets: Vec<VertexId> = Vec::with_capacity(capacity);
    // Weight storage mirrors `CsrGraph::from_edges`: the subgraph is weighted
    // only when a surviving edge carries a non-unit weight.
    let mut weight_buf: Vec<f32> = Vec::new();
    let mut weighted = false;
    if graph.is_weighted() {
        weight_buf.reserve(capacity);
    }

    for &orig_src in &to_original {
        let nbrs = graph.out_neighbors(orig_src);
        match graph.out_weights(orig_src) {
            Some(weights) => {
                for (i, &orig_dst) in nbrs.iter().enumerate() {
                    if let Some(new_dst) = to_sample[orig_dst as usize] {
                        out_targets.push(new_dst);
                        weight_buf.push(weights[i]);
                        weighted |= weights[i] != 1.0;
                    }
                }
            }
            None => {
                for &orig_dst in nbrs {
                    if let Some(new_dst) = to_sample[orig_dst as usize] {
                        out_targets.push(new_dst);
                    }
                }
            }
        }
        out_offsets.push(out_targets.len());
    }

    let out_weights = weighted.then_some(weight_buf);
    let sub = CsrGraph::from_csr_parts(to_original.len(), out_offsets, out_targets, out_weights);
    (
        sub,
        SubgraphMapping {
            to_original,
            to_sample,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_list::EdgeList;
    use crate::generators::{generate_rmat, RmatConfig};

    fn square() -> CsrGraph {
        // 0 -> 1 -> 2 -> 3 -> 0 plus diagonal 0 -> 2
        let el: EdgeList = [(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2)]
            .into_iter()
            .collect();
        CsrGraph::from_edge_list(&el)
    }

    #[test]
    fn keeps_only_internal_edges() {
        let g = square();
        let (sub, map) = induced_subgraph(&g, &[0, 1, 2]);
        assert_eq!(sub.num_vertices(), 3);
        // Edges 0->1, 1->2, 0->2 survive; 2->3 and 3->0 do not.
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(map.num_sampled(), 3);
    }

    #[test]
    fn mapping_roundtrips() {
        let g = square();
        let (_, map) = induced_subgraph(&g, &[3, 1]);
        assert_eq!(map.original_id(0), 3);
        assert_eq!(map.original_id(1), 1);
        assert_eq!(map.sample_id(3), Some(0));
        assert_eq!(map.sample_id(1), Some(1));
        assert_eq!(map.sample_id(0), None);
        let pairs: Vec<_> = map.iter().collect();
        assert_eq!(pairs, vec![(0, 3), (1, 1)]);
    }

    #[test]
    fn mapping_serde_roundtrip_rebuilds_to_sample() {
        let g = square();
        let (_, map) = induced_subgraph(&g, &[3, 1]);
        let value = map.serialize_value();
        let entries = value.as_map().unwrap();
        assert!(serde::get_field_opt(entries, "to_sample").is_none());
        assert_eq!(SubgraphMapping::deserialize_value(&value).unwrap(), map);
    }

    #[test]
    fn mapping_deserialize_rejects_bad_ids() {
        let mapping = |ids: Vec<u32>, n: usize| {
            SubgraphMapping::deserialize_value(&Value::Map(vec![
                ("to_original".to_string(), Value::U32s(ids)),
                ("original_vertices".to_string(), Value::UInt(n as u64)),
            ]))
        };
        assert!(mapping(vec![0, 3], 4).is_ok());
        assert!(mapping(vec![0, 4], 4).is_err(), "out-of-range id accepted");
        assert!(mapping(vec![1, 1], 4).is_err(), "duplicate id accepted");
        assert!(
            mapping(vec![], usize::MAX).is_err(),
            "huge vertex count accepted"
        );
    }

    #[test]
    fn duplicate_selection_is_ignored() {
        let g = square();
        let (sub, map) = induced_subgraph(&g, &[0, 0, 1, 1]);
        assert_eq!(sub.num_vertices(), 2);
        assert_eq!(map.num_sampled(), 2);
        assert_eq!(sub.num_edges(), 1); // only 0 -> 1
    }

    #[test]
    fn preserves_weights() {
        let mut el = EdgeList::new();
        el.push_weighted(0, 1, 0.5);
        el.push_weighted(1, 2, 3.0);
        let g = CsrGraph::from_edge_list(&el);
        let (sub, _) = induced_subgraph(&g, &[0, 1]);
        assert!(sub.is_weighted());
        assert_eq!(sub.out_weights(0).unwrap(), &[0.5]);
    }

    #[test]
    fn empty_selection_gives_empty_graph() {
        let g = square();
        let (sub, map) = induced_subgraph(&g, &[]);
        assert_eq!(sub.num_vertices(), 0);
        assert_eq!(sub.num_edges(), 0);
        assert_eq!(map.num_sampled(), 0);
    }

    #[test]
    fn full_selection_preserves_graph() {
        let g = generate_rmat(&RmatConfig::new(7, 4).with_seed(5));
        let all: Vec<VertexId> = g.vertices().collect();
        let (sub, map) = induced_subgraph(&g, &all);
        assert_eq!(sub.num_vertices(), g.num_vertices());
        assert_eq!(sub.num_edges(), g.num_edges());
        // Identity mapping because vertices were passed in order.
        for v in g.vertices() {
            assert_eq!(map.original_id(v), v);
        }
    }

    #[test]
    fn subgraph_degrees_never_exceed_original() {
        let g = generate_rmat(&RmatConfig::new(8, 6).with_seed(8));
        let selected: Vec<VertexId> = g.vertices().filter(|v| v % 3 == 0).collect();
        let (sub, map) = induced_subgraph(&g, &selected);
        for (s, o) in map.iter() {
            assert!(sub.out_degree(s) <= g.out_degree(o));
            assert!(sub.in_degree(s) <= g.in_degree(o));
        }
    }
}

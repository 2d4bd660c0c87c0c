//! Node personalization vectors (paper §IV-A).
//!
//! A node `u` summarizes its local collection `D_u` as
//! `e0_u = Σ_{d ∈ D_u} e_d`. Thanks to the linearity of the dot product,
//! `e_q · e0_u = Σ_d e_q · e_d` — the total relevance of the node's
//! documents (Eq. 3). The paper notes this "runs the risk of prioritizing
//! nodes with many irrelevant documents" and calls better aggregations
//! future work (§VI); [`Aggregation`] implements the paper's sum plus three
//! such candidates, which `ablation_aggregation` compares.

use gdsearch_embed::Embedding;
use gdsearch_graph::{Graph, NodeId};

use crate::SearchError;

/// How a node folds its document embeddings into one personalization
/// vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Aggregation {
    /// Plain sum (the paper's choice; preserves Eq. 3 linearity, favors
    /// document-rich nodes).
    #[default]
    Sum,
    /// Mean of document embeddings: removes the document-count bias, at the
    /// cost of Eq. 3's total-relevance semantics.
    Mean,
    /// Sum followed by L2 normalization: keeps only the *direction* of the
    /// collection summary.
    L2Normalized,
    /// Sum scaled by `1 / (1 + deg(u))`: discounts hub nodes whose signal
    /// would otherwise dominate diffusion.
    DegreeScaled,
}

/// Computes the personalization vector of one node from its document
/// embeddings.
///
/// Returns the zero vector for a node without documents.
///
/// # Errors
///
/// Returns [`SearchError::Embed`] if document embeddings disagree on
/// dimensionality.
///
/// # Example
///
/// ```
/// use gdsearch::personalization::{aggregate, Aggregation};
/// use gdsearch_embed::Embedding;
///
/// # fn main() -> Result<(), gdsearch::SearchError> {
/// let docs = [
///     Embedding::new(vec![1.0, 0.0]),
///     Embedding::new(vec![0.0, 3.0]),
/// ];
/// let sum = aggregate(docs.iter(), 2, Aggregation::Sum, 0)?;
/// assert_eq!(sum.as_slice(), &[1.0, 3.0]);
/// let mean = aggregate(docs.iter(), 2, Aggregation::Mean, 0)?;
/// assert_eq!(mean.as_slice(), &[0.5, 1.5]);
/// # Ok(())
/// # }
/// ```
pub fn aggregate<'a, I>(
    documents: I,
    dim: usize,
    aggregation: Aggregation,
    degree: usize,
) -> Result<Embedding, SearchError>
where
    I: IntoIterator<Item = &'a Embedding>,
{
    let mut sum = Embedding::zeros(dim);
    let mut count = 0usize;
    for doc in documents {
        sum.add_in_place(doc).map_err(SearchError::from)?;
        count += 1;
    }
    Ok(match aggregation {
        Aggregation::Sum => sum,
        Aggregation::Mean => {
            if count > 0 {
                sum.scaled(1.0 / count as f32)
            } else {
                sum
            }
        }
        Aggregation::L2Normalized => sum.normalized(),
        Aggregation::DegreeScaled => sum.scaled(1.0 / (1.0 + degree as f32)),
    })
}

/// Computes the sparse personalization rows for every node that hosts at
/// least one document.
///
/// `docs_at` maps each hosting node to the embeddings of its documents.
/// The output feeds directly into the diffusion engines' sparse entry
/// points.
///
/// # Errors
///
/// Returns [`SearchError::Graph`] for out-of-range nodes and
/// [`SearchError::Embed`] for ragged embeddings.
pub fn personalization_rows(
    graph: &Graph,
    dim: usize,
    docs_at: &[(NodeId, Vec<&Embedding>)],
    aggregation: Aggregation,
) -> Result<Vec<(NodeId, Embedding)>, SearchError> {
    let mut rows = Vec::with_capacity(docs_at.len());
    for (node, docs) in docs_at {
        graph.check_node(*node).map_err(SearchError::from)?;
        let vector = aggregate(docs.iter().copied(), dim, aggregation, graph.degree(*node))?;
        rows.push((*node, vector));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdsearch_embed::similarity;
    use gdsearch_graph::generators;

    fn docs() -> Vec<Embedding> {
        vec![
            Embedding::new(vec![1.0, 0.0, 0.0]),
            Embedding::new(vec![0.0, 2.0, 0.0]),
            Embedding::new(vec![0.0, 0.0, 4.0]),
        ]
    }

    #[test]
    fn sum_preserves_linearity_of_relevance() {
        // Eq. (3): e_q · Σ e_d == Σ e_q · e_d.
        let ds = docs();
        let q = Embedding::new(vec![0.5, -1.0, 0.25]);
        let agg = aggregate(ds.iter(), 3, Aggregation::Sum, 0).unwrap();
        let lhs = similarity::dot(&q, &agg).unwrap();
        let rhs: f32 = ds.iter().map(|d| similarity::dot(&q, d).unwrap()).sum();
        assert!((lhs - rhs).abs() < 1e-6);
    }

    #[test]
    fn mean_divides_by_count() {
        let agg = aggregate(docs().iter(), 3, Aggregation::Mean, 0).unwrap();
        assert_eq!(agg.as_slice(), &[1.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0]);
    }

    #[test]
    fn l2_normalized_is_unit() {
        let agg = aggregate(docs().iter(), 3, Aggregation::L2Normalized, 0).unwrap();
        assert!((agg.norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn degree_scaled_discounts_hubs() {
        let hub = aggregate(docs().iter(), 3, Aggregation::DegreeScaled, 9).unwrap();
        let leaf = aggregate(docs().iter(), 3, Aggregation::DegreeScaled, 0).unwrap();
        assert!(hub.norm() < leaf.norm());
        assert!(
            (leaf.norm()
                - docs()
                    .iter()
                    .fold(Embedding::zeros(3), |mut a, d| {
                        a.add_in_place(d).unwrap();
                        a
                    })
                    .norm())
            .abs()
                < 1e-6
        );
    }

    #[test]
    fn empty_documents_give_zero_vector() {
        for aggregation in [
            Aggregation::Sum,
            Aggregation::Mean,
            Aggregation::L2Normalized,
            Aggregation::DegreeScaled,
        ] {
            let agg = aggregate(std::iter::empty(), 4, aggregation, 2).unwrap();
            assert!(agg.is_zero(), "{aggregation:?}");
        }
    }

    #[test]
    fn ragged_documents_rejected() {
        let bad = [Embedding::zeros(2)];
        assert!(aggregate(bad.iter(), 3, Aggregation::Sum, 0).is_err());
    }

    #[test]
    fn rows_validate_nodes() {
        let g = generators::ring(4).unwrap();
        let ds = docs();
        let refs: Vec<&Embedding> = ds.iter().collect();
        let ok = personalization_rows(&g, 3, &[(NodeId::new(1), refs.clone())], Aggregation::Sum)
            .unwrap();
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].0, NodeId::new(1));
        assert!(personalization_rows(&g, 3, &[(NodeId::new(7), refs)], Aggregation::Sum).is_err());
    }
}

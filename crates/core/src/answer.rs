//! Query answers and score ordering.

use std::cmp::Ordering;

use trex_index::ElementRef;
use trex_summary::Sid;

/// One ranked answer: an element, the summary node it belongs to, and its
/// combined relevance score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// The answer element.
    pub element: ElementRef,
    /// The element's summary node.
    pub sid: Sid,
    /// Combined (summed over terms) relevance score.
    pub score: f32,
}

impl Answer {
    /// Deterministic ranking order: score descending, then (doc, end)
    /// ascending as the tiebreak so equal-scored runs are stable across
    /// strategies.
    pub fn rank_cmp(&self, other: &Answer) -> Ordering {
        other
            .score
            .partial_cmp(&self.score)
            .expect("scores are finite")
            .then_with(|| self.element.cmp(&other.element))
            .then_with(|| self.sid.cmp(&other.sid))
    }
}

/// Sorts answers into ranking order (every strategy's final ranking, and
/// Merge's Fig. 3 line-22 sort).
pub fn rank(answers: &mut [Answer]) {
    answers.sort_unstable_by(Answer::rank_cmp);
}

/// Truncates a ranked list to the top-k prefix.
pub fn top_k(mut answers: Vec<Answer>, k: usize) -> Vec<Answer> {
    rank(&mut answers);
    answers.truncate(k);
    answers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ans(doc: u32, end: u32, score: f32) -> Answer {
        Answer {
            element: ElementRef {
                doc,
                end,
                length: 1,
            },
            sid: 1,
            score,
        }
    }

    #[test]
    fn rank_orders_by_score_then_position() {
        let mut v = vec![ans(0, 5, 1.0), ans(0, 3, 2.0), ans(1, 1, 2.0)];
        rank(&mut v);
        assert_eq!(v[0].score, 2.0);
        assert_eq!(v[0].element.doc, 0);
        assert_eq!(v[1].element.doc, 1);
        assert_eq!(v[2].score, 1.0);
    }

    #[test]
    fn top_k_truncates_after_ranking() {
        let v = vec![ans(0, 1, 0.5), ans(0, 2, 3.0), ans(0, 3, 1.5)];
        let top = top_k(v, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].score, 3.0);
        assert_eq!(top[1].score, 1.5);
    }

    #[test]
    fn top_k_with_large_k_keeps_everything() {
        let v = vec![ans(0, 1, 0.5)];
        assert_eq!(top_k(v, 100).len(), 1);
    }
}

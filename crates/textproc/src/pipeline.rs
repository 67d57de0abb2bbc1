//! The end-to-end text analysis pipeline:
//! tokenize → normalize → stop-filter → stem → intern → count → weigh.
//!
//! Two entry points matter:
//!
//! * [`TextPipeline::index_document`] — analyze a document *and* record it
//!   in the corpus statistics (used while ingesting the message stream and
//!   the ad corpus),
//! * [`TextPipeline::analyze`] — analyze without touching statistics (used
//!   for ad-hoc queries and tests).
//!
//! Tokenization runs on the **raw** text so hashtag camel-case splitting
//! can see original capitalization; each token is then normalized
//! individually through a reused buffer, keeping the hot path at one
//! amortized allocation per *novel* term.

use std::collections::HashMap;

use crate::dictionary::{Dictionary, TermId};
use crate::ngrams::bigram_term;
use crate::normalize::normalize_into;
use crate::sparse::SparseVector;
use crate::stemmer::Stemmer;
use crate::stopwords::StopWords;
use crate::tfidf::WeightingConfig;
use crate::tokenizer::{Tokenizer, TokenizerConfig};

/// Configuration for [`TextPipeline`].
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// Tokenizer settings.
    pub tokenizer: TokenizerConfig,
    /// Weighting settings. Defaults to log-TF × smooth-IDF, L2-normalized
    /// via [`PipelineConfig::standard`]; the plain `Default` uses the
    /// individual scheme defaults un-normalized.
    pub weighting: WeightingConfig,
    /// Apply the Porter stemmer to word tokens.
    pub stem: bool,
    /// Drop stop words.
    pub filter_stopwords: bool,
    /// Additionally emit bigram terms for adjacent content words
    /// ("running shoes" → `run▪shoe`), weighted like any other term.
    /// Off by default: it enlarges vectors ~2× for a phrase-precision
    /// gain the evaluation quantifies separately.
    pub emit_bigrams: bool,
}

impl PipelineConfig {
    /// The configuration used by the evaluation harness.
    pub fn standard() -> Self {
        PipelineConfig {
            tokenizer: TokenizerConfig::default(),
            weighting: WeightingConfig::standard(),
            stem: true,
            filter_stopwords: true,
            emit_bigrams: false,
        }
    }

    /// The standard configuration plus bigram phrase features.
    pub fn with_bigrams() -> Self {
        PipelineConfig {
            emit_bigrams: true,
            ..PipelineConfig::standard()
        }
    }
}

/// The analyzer. Owns the dictionary (vocabulary grows as documents are
/// indexed) and all scratch buffers.
#[derive(Debug)]
pub struct TextPipeline {
    config: PipelineConfig,
    tokenizer: Tokenizer,
    stopwords: StopWords,
    stemmer: Stemmer,
    dictionary: Dictionary,
    // Scratch buffers, reused across calls.
    norm_buf: String,
    counts_buf: HashMap<TermId, u32>,
}

impl TextPipeline {
    /// Create a pipeline with defaults for everything but `config`.
    pub fn new(config: PipelineConfig) -> Self {
        let stopwords = if config.filter_stopwords {
            StopWords::english()
        } else {
            StopWords::none()
        };
        TextPipeline {
            tokenizer: Tokenizer::new(config.tokenizer.clone()),
            stopwords,
            stemmer: Stemmer::new(),
            dictionary: Dictionary::new(),
            norm_buf: String::new(),
            counts_buf: HashMap::new(),
            config,
        }
    }

    /// A pipeline with the standard evaluation configuration
    /// (stemming + stop words + log-TF/smooth-IDF/L2).
    pub fn standard() -> Self {
        TextPipeline::new(PipelineConfig::standard())
    }

    /// The term dictionary (vocabulary + document frequencies).
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Turn `text` into term counts, interning novel terms.
    ///
    /// Returns the scratch count map; callers must copy what they need
    /// before the next call.
    fn count_terms(&mut self, text: &str) -> &HashMap<TermId, u32> {
        self.counts_buf.clear();
        let tokens = self.tokenizer.tokenize(text);
        let mut prev_stem: Option<String> = None;
        for token in &tokens {
            normalize_into(&token.text, &mut self.norm_buf);
            if self.norm_buf.is_empty() {
                continue;
            }
            if self.config.filter_stopwords && self.stopwords.contains(&self.norm_buf) {
                // Stop words break phrase adjacency.
                prev_stem = None;
                continue;
            }
            let term = if self.config.stem {
                self.stemmer.stem(&self.norm_buf)
            } else {
                self.norm_buf.as_str()
            };
            if term.len() < self.config.tokenizer.min_token_len {
                prev_stem = None;
                continue;
            }
            let id = self.dictionary.intern(term);
            *self.counts_buf.entry(id).or_insert(0) += 1;
            if self.config.emit_bigrams {
                if let Some(prev) = &prev_stem {
                    let bid = self.dictionary.intern(&bigram_term(prev, term));
                    *self.counts_buf.entry(bid).or_insert(0) += 1;
                }
                prev_stem = Some(term.to_string());
            }
        }
        &self.counts_buf
    }

    /// Analyze `text` into a weighted sparse vector **without** recording
    /// it in the corpus statistics.
    pub fn analyze(&mut self, text: &str) -> SparseVector {
        self.count_terms(text);
        let counts: Vec<(TermId, u32)> = self.counts_buf.iter().map(|(&t, &c)| (t, c)).collect();
        self.config.weighting.weigh(counts, &self.dictionary)
    }

    /// Analyze `text` **and** record it as one document in the corpus
    /// statistics (document frequencies, document count).
    ///
    /// Note the returned weights use the statistics *including* this
    /// document, so repeated indexing of the same text converges.
    pub fn index_document(&mut self, text: &str) -> SparseVector {
        self.count_terms(text);
        let counts: Vec<(TermId, u32)> = self.counts_buf.iter().map(|(&t, &c)| (t, c)).collect();
        self.dictionary
            .record_document(counts.iter().map(|&(t, _)| t));
        self.config.weighting.weigh(counts, &self.dictionary)
    }

    /// Analyze a bag of raw keywords (ad keyword lists), bypassing the
    /// tokenizer but applying normalization, stemming, and weighting.
    pub fn analyze_keywords<S: AsRef<str>>(&mut self, keywords: &[S]) -> SparseVector {
        self.counts_buf.clear();
        for kw in keywords {
            normalize_into(kw.as_ref(), &mut self.norm_buf);
            if self.norm_buf.is_empty() {
                continue;
            }
            let term = if self.config.stem {
                self.stemmer.stem(&self.norm_buf)
            } else {
                self.norm_buf.as_str()
            };
            if term.is_empty() {
                continue;
            }
            let id = self.dictionary.intern(term);
            *self.counts_buf.entry(id).or_insert(0) += 1;
        }
        let counts: Vec<(TermId, u32)> = self.counts_buf.iter().map(|(&t, &c)| (t, c)).collect();
        self.config.weighting.weigh(counts, &self.dictionary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_pipeline_end_to_end() {
        let mut p = TextPipeline::standard();
        let v = p.index_document("The nation's best volleyball returns tomorrow night!");
        assert!(!v.is_empty());
        // Stop words gone; "volleyball" stemmed and present.
        let stemmed = p.dictionary().get("volleybal").expect("volleyball indexed");
        assert!(v.get(stemmed) > 0.0);
        assert!(p.dictionary().get("the").is_none());
    }

    #[test]
    fn doc_example_from_lib_rs() {
        let mut p = TextPipeline::new(PipelineConfig::default());
        let v = p.index_document("Running shoes and RUNNING gear! #running");
        // Default config: no stemming/stopword filtering is OFF by default
        // Default derive => stem=false, filter=false: "running", "shoes",
        // "and", "gear", hashtag "running".
        assert!(v.len() >= 3);
    }

    #[test]
    fn stemming_folds_variants() {
        let mut p = TextPipeline::standard();
        let v = p.analyze("running runs ran runner");
        // "running"/"runs" → "run"; "runner" → "runner"; "ran" → "ran".
        let run = p.dictionary().get("run").unwrap();
        assert!(v.get(run) > 0.0);
    }

    #[test]
    fn analyze_does_not_touch_statistics() {
        let mut p = TextPipeline::standard();
        p.analyze("volleyball match tonight");
        assert_eq!(p.dictionary().num_docs(), 0);
        p.index_document("volleyball match tonight");
        assert_eq!(p.dictionary().num_docs(), 1);
    }

    #[test]
    fn keywords_share_vocabulary_with_documents() {
        let mut p = TextPipeline::standard();
        p.index_document("big volleyball sale this weekend");
        let ad = p.analyze_keywords(&["Volleyball", "Sale", "Shoes"]);
        let doc = p.analyze("volleyball sale");
        assert!(
            ad.dot(&doc) > 0.0,
            "ad and document must overlap on shared stems"
        );
    }

    #[test]
    fn repeated_terms_counted() {
        let mut p = TextPipeline::new(PipelineConfig {
            stem: false,
            filter_stopwords: false,
            weighting: WeightingConfig {
                tf: crate::tfidf::TfScheme::Raw,
                idf: crate::tfidf::IdfScheme::None,
                l2_normalize: false,
            },
            ..PipelineConfig::standard()
        });
        let v = p.analyze("buy buy buy now");
        let buy = p.dictionary().get("buy").unwrap();
        assert_eq!(v.get(buy), 3.0);
    }

    #[test]
    fn hashtag_parts_match_plain_words() {
        let mut p = TextPipeline::standard();
        p.index_document("flash sale on shoes");
        let tagged = p.analyze("#FlashSale");
        let plain = p.analyze("flash sale");
        assert!(tagged.dot(&plain) > 0.0);
    }

    #[test]
    fn bigrams_connect_phrases() {
        let mut p = TextPipeline::new(PipelineConfig::with_bigrams());
        p.index_document("running shoes on sale");
        p.index_document("marathon running gear");
        let query = p.analyze("new running shoes");
        let phrase = p
            .dictionary()
            .get(&crate::ngrams::bigram_term("run", "shoe"));
        let id = phrase.expect("bigram interned");
        assert!(
            query.get(id) > 0.0,
            "phrase term present in the query vector"
        );
        // A scrambled mention shares unigrams but not the phrase.
        let scrambled = p.analyze("shoes for my running club");
        assert_eq!(scrambled.get(id), 0.0, "non-adjacent words emit no bigram");
    }

    #[test]
    fn stopwords_break_bigram_adjacency() {
        let mut p = TextPipeline::new(PipelineConfig::with_bigrams());
        let v = p.index_document("coffee and espresso");
        let direct = crate::ngrams::bigram_term("coffe", "espresso");
        let coffee = crate::ngrams::bigram_term("coffee", "espresso");
        // Whatever the exact stems, no bigram joins across "and".
        for (_, term, _) in p.dictionary().iter() {
            assert!(
                !crate::ngrams::is_bigram(term),
                "bigram {term:?} must not span the stop word"
            );
        }
        let _ = (v, direct, coffee);
    }

    #[test]
    fn empty_text_gives_empty_vector() {
        let mut p = TextPipeline::standard();
        assert!(p.analyze("").is_empty());
        assert!(p.analyze("the and or").is_empty(), "pure stop words vanish");
        assert!(p.analyze_keywords::<&str>(&[]).is_empty());
    }

    #[test]
    fn short_stems_are_dropped() {
        let mut p = TextPipeline::standard();
        // "ties" stems to "ti" (length 2) which passes min_token_len=2;
        // verify nothing shorter leaks in.
        p.index_document("ties");
        for (_, term, _) in p.dictionary().iter() {
            assert!(term.chars().count() >= 2, "leaked short term {term:?}");
        }
    }
}

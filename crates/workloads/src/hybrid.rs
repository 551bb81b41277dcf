//! Product-catalog generator for the hybrid relational+vector+keyword
//! experiments (E3).

use rand::prelude::*;

/// Product categories; each has an embedding centroid and a vocabulary.
pub const CATEGORIES: &[&str] = &["audio", "camera", "kitchen", "outdoor", "office", "gaming"];

const VOCAB: &[(&str, &[&str])] = &[
    (
        "audio",
        &[
            "headphone",
            "speaker",
            "bass",
            "wireless",
            "noise",
            "cancelling",
        ],
    ),
    (
        "camera",
        &["lens", "zoom", "sensor", "tripod", "aperture", "mirrorless"],
    ),
    (
        "kitchen",
        &["blender", "knife", "oven", "steel", "nonstick", "espresso"],
    ),
    (
        "outdoor",
        &[
            "tent",
            "hiking",
            "waterproof",
            "trail",
            "sleeping",
            "thermal",
        ],
    ),
    (
        "office",
        &[
            "ergonomic",
            "desk",
            "monitor",
            "keyboard",
            "mesh",
            "standing",
        ],
    ),
    (
        "gaming",
        &[
            "console",
            "controller",
            "rgb",
            "latency",
            "fps",
            "mechanical",
        ],
    ),
];

const FILLER: &[&str] = &[
    "premium",
    "quality",
    "durable",
    "lightweight",
    "portable",
    "compact",
    "professional",
    "classic",
    "modern",
    "versatile",
];

/// One generated product.
#[derive(Debug, Clone)]
pub struct Product {
    /// Product id (also the row/vector/document id everywhere).
    pub id: u64,
    /// Category name.
    pub category: &'static str,
    /// Price in currency units.
    pub price: f64,
    /// Rating in [1, 5].
    pub rating: f64,
    /// Stock flag.
    pub in_stock: bool,
    /// Description text.
    pub description: String,
    /// Embedding vector.
    pub embedding: Vec<f32>,
}

/// A generated catalog.
#[derive(Debug)]
pub struct ProductCatalog {
    /// All products.
    pub products: Vec<Product>,
    /// Embedding dimensionality.
    pub dim: usize,
}

/// Deterministically generate `n` products with `dim`-dimensional
/// embeddings. Embeddings cluster by category (centroid + noise), and
/// descriptions draw most words from the category vocabulary — so vector
/// similarity, keyword relevance, and the `category` column all correlate,
/// like a real catalog.
pub fn generate(n: usize, dim: usize, seed: u64) -> ProductCatalog {
    assert!(
        dim >= CATEGORIES.len(),
        "dim must be >= number of categories"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut products = Vec::with_capacity(n);
    for id in 0..n as u64 {
        let cat_idx = rng.gen_range(0..CATEGORIES.len());
        let category = CATEGORIES[cat_idx];
        // Centroid: one-hot on the category axis, scaled; noise elsewhere.
        let mut embedding = vec![0f32; dim];
        for e in embedding.iter_mut() {
            *e = rng.gen::<f32>() * 0.3;
        }
        embedding[cat_idx] += 1.0;

        let vocab = VOCAB[cat_idx].1;
        let words: Vec<&str> = (0..8)
            .map(|_| {
                if rng.gen::<f64>() < 0.7 {
                    vocab[rng.gen_range(0..vocab.len())]
                } else {
                    FILLER[rng.gen_range(0..FILLER.len())]
                }
            })
            .collect();
        let description = format!("{} {}", category, words.join(" "));

        products.push(Product {
            id,
            category,
            price: (rng.gen_range(500..50_000) as f64) / 100.0,
            rating: (rng.gen_range(10..=50) as f64) / 10.0,
            in_stock: rng.gen::<f64>() < 0.8,
            description,
            embedding,
        });
    }
    ProductCatalog { products, dim }
}

/// A hybrid query: "find k products like this vector, matching this keyword,
/// under this price".
#[derive(Debug, Clone)]
pub struct HybridQuery {
    /// Query embedding.
    pub embedding: Vec<f32>,
    /// Required keyword.
    pub keyword: String,
    /// Maximum price.
    pub max_price: f64,
    /// Result size.
    pub k: usize,
}

/// Generate `n` hybrid queries aimed at random categories.
pub fn generate_queries(
    n: usize,
    dim: usize,
    max_price: f64,
    k: usize,
    seed: u64,
) -> Vec<HybridQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let cat_idx = rng.gen_range(0..CATEGORIES.len());
            let mut embedding = vec![0f32; dim];
            for e in embedding.iter_mut() {
                *e = rng.gen::<f32>() * 0.3;
            }
            embedding[cat_idx] += 1.0;
            let vocab = VOCAB[cat_idx].1;
            HybridQuery {
                embedding,
                keyword: vocab[rng.gen_range(0..vocab.len())].to_string(),
                max_price,
                k,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sized() {
        let a = generate(100, 8, 3);
        let b = generate(100, 8, 3);
        assert_eq!(a.products.len(), 100);
        assert_eq!(a.products[5].description, b.products[5].description);
        assert_eq!(a.products[5].embedding, b.products[5].embedding);
    }

    #[test]
    fn embeddings_cluster_by_category() {
        let cat = generate(500, 8, 4);
        // The category axis must carry the largest component.
        for p in &cat.products {
            let cat_idx = CATEGORIES.iter().position(|&c| c == p.category).unwrap();
            let max_idx = p
                .embedding
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            assert_eq!(max_idx, cat_idx);
        }
    }

    #[test]
    fn descriptions_lean_on_category_vocab() {
        let cat = generate(200, 8, 5);
        let mut in_vocab = 0usize;
        let mut total = 0usize;
        for p in &cat.products {
            let cat_idx = CATEGORIES.iter().position(|&c| c == p.category).unwrap();
            let vocab = VOCAB[cat_idx].1;
            for w in p.description.split_whitespace().skip(1) {
                total += 1;
                if vocab.contains(&w) {
                    in_vocab += 1;
                }
            }
        }
        assert!(in_vocab as f64 / total as f64 > 0.5);
    }

    #[test]
    fn queries_target_categories() {
        let qs = generate_queries(20, 8, 100.0, 5, 7);
        assert_eq!(qs.len(), 20);
        for q in &qs {
            assert_eq!(q.embedding.len(), 8);
            assert!(!q.keyword.is_empty());
        }
    }
}

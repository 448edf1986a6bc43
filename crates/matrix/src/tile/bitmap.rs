//! Dense tile-id bitmaps over sorted index lists — the sidecar the bitmap
//! intersection kernel reads.
//!
//! Step 2 intersects `A`'s tile row `i` (a sorted list of tile-column ids)
//! with `B`'s tile column `j` (a sorted list of tile-row ids). Both lists
//! live in the same universe `0..K` where `K = A.tile_n == B.tile_m`, so a
//! list can be represented as `ceil(K/64)` machine words with one bit per
//! member. Intersection then becomes a word-wise AND; the *position in the
//! list* of a surviving member — what the kernels need to recover the tile
//! ids — comes from a per-word exclusive prefix popcount (`rank`) plus a
//! popcount of the bits below the member inside its word.
//!
//! The sidecar is quadratic-ish in the tile grid (`lists × words`), so the
//! pipeline only builds it when the estimated footprint is small (see
//! [`ListBitmaps::bytes_for`] and the gate in `tilespgemm-core`).

/// Bitmaps of `n` sorted index lists over a shared universe, with per-word
/// exclusive prefix popcounts for rank recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListBitmaps {
    /// Lists covered.
    n_lists: usize,
    /// `u64` words per list: `ceil(universe / 64)`.
    words_per_list: usize,
    /// Membership bits, `n_lists * words_per_list` words; list `l` owns
    /// `words[l*wpl .. (l+1)*wpl]` and member `v` sets bit `v % 64` of word
    /// `v / 64`.
    words: Vec<u64>,
    /// `rank[l*wpl + w]` = members of list `l` strictly below word `w` — an
    /// exclusive prefix popcount, so a member's list position is
    /// `rank[w] + popcount(words[w] & ((1 << bit) - 1))`.
    rank: Vec<u32>,
}

impl ListBitmaps {
    /// Builds bitmaps for the CSR-shaped lists `idx[ptr[l]..ptr[l+1]]`
    /// (each strictly ascending, members `< universe`).
    pub fn from_csr(ptr: &[usize], idx: &[u32], universe: usize) -> Self {
        let n_lists = ptr.len().saturating_sub(1);
        let wpl = universe.div_ceil(64);
        let mut words = vec![0u64; n_lists * wpl];
        let mut rank = vec![0u32; n_lists * wpl];
        for l in 0..n_lists {
            let base = l * wpl;
            for &v in &idx[ptr[l]..ptr[l + 1]] {
                debug_assert!((v as usize) < universe, "list member outside the universe");
                words[base + v as usize / 64] |= 1u64 << (v % 64);
            }
            let mut running = 0u32;
            for w in 0..wpl {
                rank[base + w] = running;
                running += words[base + w].count_ones();
            }
        }
        ListBitmaps {
            n_lists,
            words_per_list: wpl,
            words,
            rank,
        }
    }

    /// Lists covered.
    pub fn len(&self) -> usize {
        self.n_lists
    }

    /// `true` when no lists are covered.
    pub fn is_empty(&self) -> bool {
        self.n_lists == 0
    }

    /// The membership words and prefix popcounts of list `l`.
    pub fn list(&self, l: usize) -> (&[u64], &[u32]) {
        let lo = l * self.words_per_list;
        let hi = lo + self.words_per_list;
        (&self.words[lo..hi], &self.rank[lo..hi])
    }

    /// Heap bytes of the sidecar.
    pub fn bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>() + self.rank.len() * std::mem::size_of::<u32>()
    }

    /// Predicted [`Self::bytes`] for `n_lists` lists over `universe`,
    /// without building anything — the pipeline's build-or-skip gate.
    pub fn bytes_for(n_lists: usize, universe: usize) -> usize {
        n_lists * universe.div_ceil(64) * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csr(lists: &[&[u32]], universe: usize) -> ListBitmaps {
        let mut ptr = vec![0usize];
        let mut idx = Vec::new();
        for l in lists {
            idx.extend_from_slice(l);
            ptr.push(idx.len());
        }
        ListBitmaps::from_csr(&ptr, &idx, universe)
    }

    /// Reads members and their list positions back out of the bitmap.
    fn members(bm: &ListBitmaps, l: usize) -> Vec<(u32, u32)> {
        let (words, rank) = bm.list(l);
        let mut out = Vec::new();
        for (w, (&word, &r)) in words.iter().zip(rank.iter()).enumerate() {
            let mut m = word;
            while m != 0 {
                let bit = m.trailing_zeros();
                let pos = r + (word & ((1u64 << bit) - 1)).count_ones();
                out.push((w as u32 * 64 + bit, pos));
                m &= m - 1;
            }
        }
        out
    }

    #[test]
    fn round_trips_members_and_positions() {
        let lists: &[&[u32]] = &[&[0, 3, 63, 64, 127, 200], &[], &[199], &[0, 1, 2, 3]];
        let bm = csr(lists, 201);
        assert_eq!(bm.len(), 4);
        assert_eq!(bm.list(0).0.len(), 4);
        for (l, list) in lists.iter().enumerate() {
            let got = members(&bm, l);
            let want: Vec<(u32, u32)> = list
                .iter()
                .enumerate()
                .map(|(p, &v)| (v, p as u32))
                .collect();
            assert_eq!(got, want, "list {l}");
        }
    }

    #[test]
    fn rank_is_exclusive_prefix_popcount() {
        let bm = csr(&[&[0, 1, 64, 65, 66, 128]], 192);
        let (_, rank) = bm.list(0);
        assert_eq!(rank, &[0, 2, 5]);
    }

    #[test]
    fn empty_input_is_empty() {
        let bm = ListBitmaps::from_csr(&[0], &[], 100);
        assert!(bm.is_empty());
        assert_eq!(bm.bytes(), 0);
        let bm = ListBitmaps::from_csr(&[], &[], 100);
        assert_eq!(bm.len(), 0);
    }

    #[test]
    fn bytes_for_matches_built_footprint() {
        let bm = csr(&[&[1, 2], &[70]], 130);
        assert_eq!(ListBitmaps::bytes_for(2, 130), bm.bytes());
        assert_eq!(bm.bytes(), 2 * 3 * 12);
    }
}

#pragma once

// The binomial tree every tree-shaped protocol uses: the CID consensus
// allreduce (core) and the blocking and nonblocking collectives (coll).

#include <vector>

namespace sessmpi::detail {

/// Binomial tree of `size` virtual ranks rooted at 0: sets `*parent` (-1 at
/// the root) and appends `vrank`'s children, smallest subtree first. Each
/// rank's depth is its popcount, so no rank is deeper than ceil(log2 size).
inline void tree(int vrank, int size, int* parent, std::vector<int>* children) {
  *parent = -1;
  int mask = 1;
  while (mask < size) {
    if ((vrank & mask) != 0) {
      *parent = vrank & ~mask;
      return;
    }
    const int child = vrank | mask;
    if (child < size) {
      children->push_back(child);
    }
    mask <<= 1;
  }
}

/// One rank's tree edges, in real ranks.
struct Tree {
  int parent = -1;            ///< -1 at the root
  std::vector<int> children;  ///< tree() order: smallest subtree first
};

/// tree() at virtual rank `vrank`, mapped to real ranks through `rank_of`
/// (a rotation for rooted operations, a member list for subsets).
template <class RankOf>
Tree mapped_tree(int vrank, int size, RankOf rank_of) {
  Tree t;
  tree(vrank, size, &t.parent, &t.children);
  if (t.parent >= 0) {
    t.parent = rank_of(t.parent);
  }
  for (int& c : t.children) {
    c = rank_of(c);
  }
  return t;
}

}  // namespace sessmpi::detail

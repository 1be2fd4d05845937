// Copy-on-write in-memory B+tree for MiniRDB indexes (DESIGN.md §15).
//
// One structure backs every index — the primary-key index and both
// logical kinds of secondary index (IndexKind::kHash / kOrdered).  A
// tree stores (key, RowId) entries in sorted order: leaves hold the
// entries, inner nodes hold separator entries and child pointers, the
// node layout of a textbook disk B+tree kept in memory.  Leaves carry no
// sibling links: path copying (below) would have to copy a leaf's left
// neighbour too, so cursors climb back through their own root-to-leaf
// path instead.
//
// MVCC: nodes are shared between the writer's live tree and every frozen
// version published from it.  Each node records the writer generation
// that created it; publish() advances the generation in O(1), which marks
// every existing node shared at once.  The writer copies a shared node
// the first time it modifies it, and the copy of a child implies a copy
// of its (then owned) parent, so an insert or erase after a publish
// copies exactly its root-to-leaf path and nothing else.  Readers never
// look at the generation — it is writer-private, written only when a
// node is created, before any version can reach it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace xr::rdb {

/// Copy-on-write B+tree over entries of type `Entry`, totally ordered by
/// `Order::cmp(a, b)` (negative, zero, positive).  Entries that compare
/// equal are duplicates: insert() refuses them.  Keyed lookups take a
/// `before(entry)` predicate that is true exactly for a prefix of the
/// sorted entries, so callers can seek by key alone, by (key, row), or by
/// any coarser order that the entry order refines.
template <class Entry, class Order>
class CowBTree {
    struct Node;

public:
    static constexpr std::size_t kLeafCap = 64;   ///< entries per leaf
    static constexpr std::size_t kInnerCap = 64;  ///< children per inner node
    static constexpr std::size_t kMaxDepth = 16;

    CowBTree() = default;
    // A copy would share nodes the writer still considers its own;
    // publish() is the only way to share them.
    CowBTree(const CowBTree&) = delete;
    CowBTree& operator=(const CowBTree&) = delete;
    CowBTree(CowBTree&&) noexcept = default;
    CowBTree& operator=(CowBTree&&) noexcept = default;

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    /// Levels from the root to the leaves; 0 for an empty tree.
    [[nodiscard]] std::size_t depth() const { return depth_; }
    /// Nodes copied by copy-on-write since construction.
    [[nodiscard]] std::uint64_t nodes_cowed() const { return cowed_; }

    // -- writer side ----------------------------------------------------------

    /// Insert `e`; false (tree unchanged) when an equal entry exists.
    bool insert(Entry e) {
        if (root_ == nullptr) {
            root_ = make_node(true);
            root_->keys.push_back(std::move(e));
            depth_ = 1;
            ++size_;
            return true;
        }
        Split split;
        bool inserted = false;
        if (insert_at(own(root_), e, inserted, split)) {
            if (depth_ == kMaxDepth)
                throw std::length_error("index B+tree exceeds maximum depth");
            auto root = make_node(false);
            root->kids.push_back(std::move(root_));
            root->kids.push_back(std::move(split.right));
            root->keys.push_back(std::move(split.sep));
            root_ = std::move(root);
            ++depth_;
        }
        if (inserted) ++size_;
        return inserted;
    }

    /// Remove the entry equal to `e`; false when there is none.
    bool erase(const Entry& e) {
        if (find(e) == nullptr) return false;
        erase_at(own(root_), e);
        --size_;
        // An emptied leaf is unlinked from its parent; collapse inner
        // roots left with a single child, drop an empty root.
        while (root_ != nullptr && !root_->leaf && root_->kids.size() == 1) {
            root_ = root_->kids.front();
            --depth_;
        }
        if (root_ != nullptr && root_->leaf && root_->keys.empty()) clear();
        return true;
    }

    void clear() {
        root_.reset();
        size_ = 0;
        depth_ = 0;
    }

    /// Replace the contents with `sorted` (strictly ascending under
    /// Order): leaves are filled left to right and the inner levels built
    /// over them, one pass, no per-entry descent.
    void assign_sorted(std::vector<Entry> sorted) {
        clear();
        if (sorted.empty()) return;
        size_ = sorted.size();
        // Each level: nodes plus the minimum entry of each node's subtree
        // (the separator its parent needs).
        std::vector<std::shared_ptr<Node>> level;
        std::vector<Entry> mins;
        level.reserve(sorted.size() / kLeafCap + 1);
        for (std::size_t i = 0; i < sorted.size(); i += kLeafCap) {
            std::size_t end = std::min(sorted.size(), i + kLeafCap);
            auto leaf = make_node(true);
            leaf->keys.assign(std::make_move_iterator(sorted.begin() + i),
                              std::make_move_iterator(sorted.begin() + end));
            mins.push_back(leaf->keys.front());
            level.push_back(std::move(leaf));
        }
        depth_ = 1;
        while (level.size() > 1) {
            std::vector<std::shared_ptr<Node>> up;
            std::vector<Entry> up_mins;
            up.reserve(level.size() / kInnerCap + 1);
            for (std::size_t i = 0; i < level.size(); i += kInnerCap) {
                std::size_t end = std::min(level.size(), i + kInnerCap);
                auto inner = make_node(false);
                inner->kids.assign(std::make_move_iterator(level.begin() + i),
                                   std::make_move_iterator(level.begin() + end));
                inner->keys.assign(std::make_move_iterator(mins.begin() + i + 1),
                                   std::make_move_iterator(mins.begin() + end));
                up_mins.push_back(std::move(mins[i]));
                up.push_back(std::move(inner));
            }
            level = std::move(up);
            mins = std::move(up_mins);
            ++depth_;
        }
        root_ = std::move(level.front());
    }

    /// Structurally sharing copy for a frozen version; every node of
    /// this tree becomes shared (the next write copies its path).  O(1).
    [[nodiscard]] CowBTree publish() {
        CowBTree out;
        out.root_ = root_;
        out.size_ = size_;
        out.depth_ = depth_;
        ++gen_;
        return out;
    }

    /// Rough heap footprint of the nodes (bench metric).
    [[nodiscard]] std::size_t node_bytes() const {
        return root_ == nullptr ? 0 : node_bytes(*root_);
    }

    // -- reader side ----------------------------------------------------------

    class Cursor;

    /// The entry equal to `probe`, or nullptr — one descent, no cursor.
    [[nodiscard]] const Entry* find(const Entry& probe) const {
        const Node* n = root_.get();
        if (n == nullptr) return nullptr;
        while (!n->leaf) n = n->kids[child_for(*n, probe)].get();
        std::size_t pos = leaf_pos(*n, probe);
        if (pos == n->keys.size() || Order::cmp(n->keys[pos], probe) != 0)
            return nullptr;
        return &n->keys[pos];
    }

    /// Cursor at the first entry.
    [[nodiscard]] Cursor begin() const {
        return seek([](const Entry&) { return false; });
    }

    /// Cursor at the first entry for which `before(entry)` is false.
    template <class Before>
    [[nodiscard]] Cursor seek(Before before) const {
        Cursor c;
        const Node* n = root_.get();
        if (n == nullptr) return c;
        for (;;) {
            auto pos = static_cast<std::uint32_t>(count_before(n->keys, before));
            c.path_[c.depth_] = n;
            c.pos_[c.depth_] = pos;
            ++c.depth_;
            if (n->leaf) break;
            n = n->kids[pos].get();
        }
        if (c.pos_[c.depth_ - 1] == c.path_[c.depth_ - 1]->keys.size())
            c.climb();
        return c;
    }

    /// In-order cursor over the entries of one tree version.  Valid while
    /// that version is alive and unmodified (frozen versions: always).
    class Cursor {
    public:
        [[nodiscard]] bool valid() const { return depth_ > 0; }
        [[nodiscard]] const Entry& operator*() const {
            return path_[depth_ - 1]->keys[pos_[depth_ - 1]];
        }
        [[nodiscard]] const Entry* operator->() const { return &**this; }
        void next() {
            std::size_t leaf = depth_ - 1;
            if (++pos_[leaf] < path_[leaf]->keys.size()) return;
            climb();
        }

    private:
        friend class CowBTree;
        /// The leaf is exhausted: step to the first entry of the next leaf.
        void climb() {
            std::size_t l = depth_ - 1;
            while (l > 0) {
                --l;
                if (++pos_[l] < path_[l]->kids.size()) {
                    const Node* n = path_[l]->kids[pos_[l]].get();
                    for (++l; l < depth_; ++l) {
                        path_[l] = n;
                        pos_[l] = 0;
                        if (!n->leaf) n = n->kids.front().get();
                    }
                    return;
                }
            }
            depth_ = 0;
        }

        const Node* path_[kMaxDepth] = {};
        std::uint32_t pos_[kMaxDepth] = {};
        std::size_t depth_ = 0;  ///< levels [0, depth_) are set by seek()
    };

private:
    struct Node {
        std::uint64_t gen = 0;  ///< writer generation that created the node
        bool leaf = true;
        std::vector<Entry> keys;  ///< leaf: entries; inner: kids.size()-1 separators
        std::vector<std::shared_ptr<Node>> kids;  ///< inner only
    };
    /// Invariant for inner nodes: every entry under kids[i] is < keys[i]
    /// and every entry under kids[i+1] is >= keys[i].

    struct Split {
        Entry sep{};
        std::shared_ptr<Node> right;
    };

    [[nodiscard]] std::shared_ptr<Node> make_node(bool leaf) const {
        auto n = std::make_shared<Node>();
        n->gen = gen_;
        n->leaf = leaf;
        return n;
    }

    /// The writer's private copy of the node in `slot`, copying it (and
    /// repointing the slot) when a published version may share it.
    Node* own(std::shared_ptr<Node>& slot) {
        if (slot->gen != gen_) {
            auto copy = make_node(slot->leaf);
            copy->keys.reserve(slot->keys.size() + 1);
            copy->keys = slot->keys;
            if (!slot->leaf) {
                copy->kids.reserve(slot->kids.size() + 1);
                copy->kids = slot->kids;
            }
            slot = std::move(copy);
            ++cowed_;
        }
        return slot.get();
    }

    /// Length of the prefix of `keys` for which `before` holds.  The
    /// halving step is written as a select so that, for a predicate
    /// without internal branches (integer pk keys), the compiler emits a
    /// conditional move and random probes do not pay a mispredicted
    /// branch per step; std::partition_point's loop measured ~4x slower
    /// on 2000 pks.
    template <class Before>
    static std::size_t count_before(const std::vector<Entry>& keys,
                                    Before& before) {
        std::size_t n = keys.size();
        if (n == 0) return 0;
        const Entry* base = keys.data();
        while (n > 1) {
            std::size_t half = n / 2;
            base = before(base[half]) ? base + half : base;
            n -= half;
        }
        return static_cast<std::size_t>(base - keys.data()) +
               (before(*base) ? 1 : 0);
    }

    /// Child index an entry equal to `e` lives under (or is inserted into).
    static std::size_t child_for(const Node& n, const Entry& e) {
        auto at_or_before = [&e](const Entry& s) { return Order::cmp(s, e) <= 0; };
        return count_before(n.keys, at_or_before);
    }
    static std::size_t leaf_pos(const Node& n, const Entry& e) {
        auto before = [&e](const Entry& x) { return Order::cmp(x, e) < 0; };
        return count_before(n.keys, before);
    }

    /// Insert below owned node `n`; true when `n` split into `split`.
    bool insert_at(Node* n, Entry& e, bool& inserted, Split& split) {
        if (n->leaf) {
            std::size_t pos = leaf_pos(*n, e);
            if (pos < n->keys.size() && Order::cmp(n->keys[pos], e) == 0)
                return false;
            inserted = true;
            if (pos == kLeafCap) {
                // Appending to a full leaf (monotone keys: pks, Dietz pre
                // labels): start a new right leaf instead of halving this
                // one, so append-only indexes stay fully packed.
                split.right = make_node(true);
                split.right->keys.push_back(std::move(e));
                split.sep = split.right->keys.front();
                return true;
            }
            n->keys.insert(n->keys.begin() + static_cast<std::ptrdiff_t>(pos),
                           std::move(e));
            if (n->keys.size() <= kLeafCap) return false;
            std::size_t mid = n->keys.size() / 2;
            split.right = make_node(true);
            split.right->keys.assign(
                std::make_move_iterator(n->keys.begin() +
                                        static_cast<std::ptrdiff_t>(mid)),
                std::make_move_iterator(n->keys.end()));
            n->keys.resize(mid);
            split.sep = split.right->keys.front();
            return true;
        }
        std::size_t i = child_for(*n, e);
        Split below;
        if (!insert_at(own(n->kids[i]), e, inserted, below)) return false;
        if (i + 1 == kInnerCap) {
            // The rightmost child of a full node split: same append rule.
            split.right = make_node(false);
            split.right->kids.push_back(std::move(below.right));
            split.sep = std::move(below.sep);
            return true;
        }
        n->keys.insert(n->keys.begin() + static_cast<std::ptrdiff_t>(i),
                       std::move(below.sep));
        n->kids.insert(n->kids.begin() + static_cast<std::ptrdiff_t>(i + 1),
                       std::move(below.right));
        if (n->kids.size() <= kInnerCap) return false;
        std::size_t mid = n->kids.size() / 2;
        split.right = make_node(false);
        split.right->kids.assign(
            std::make_move_iterator(n->kids.begin() +
                                    static_cast<std::ptrdiff_t>(mid)),
            std::make_move_iterator(n->kids.end()));
        split.right->keys.assign(
            std::make_move_iterator(n->keys.begin() +
                                    static_cast<std::ptrdiff_t>(mid)),
            std::make_move_iterator(n->keys.end()));
        split.sep = std::move(n->keys[mid - 1]);
        n->kids.resize(mid);
        n->keys.resize(mid - 1);
        return true;
    }

    /// Erase the (present) entry `e` below owned node `n`.  Emptied
    /// children are unlinked; underfull nodes are left as they are
    /// (no rebalancing — erases are rollbacks and cell updates, rare).
    void erase_at(Node* n, const Entry& e) {
        if (n->leaf) {
            n->keys.erase(n->keys.begin() +
                          static_cast<std::ptrdiff_t>(leaf_pos(*n, e)));
            return;
        }
        std::size_t i = child_for(*n, e);
        Node* child = own(n->kids[i]);
        erase_at(child, e);
        bool emptied = child->leaf ? child->keys.empty() : child->kids.empty();
        if (!emptied) return;
        n->kids.erase(n->kids.begin() + static_cast<std::ptrdiff_t>(i));
        if (!n->keys.empty())
            n->keys.erase(n->keys.begin() +
                          static_cast<std::ptrdiff_t>(i > 0 ? i - 1 : 0));
    }

    static std::size_t node_bytes(const Node& n) {
        // Node + its control block, the two arrays, and the subtrees.
        std::size_t bytes = sizeof(Node) + 16 + n.keys.capacity() * sizeof(Entry) +
                            n.kids.capacity() * sizeof(std::shared_ptr<Node>);
        for (const auto& k : n.kids) bytes += node_bytes(*k);
        return bytes;
    }

    std::shared_ptr<Node> root_;
    std::size_t size_ = 0;
    std::size_t depth_ = 0;
    std::uint64_t gen_ = 1;    ///< writer generation; nodes stamped with it are owned
    std::uint64_t cowed_ = 0;  ///< writer-side counter
};

}  // namespace xr::rdb

/**
 * @file
 * The breadth-first search both exploration stages of hmgcheck run:
 * the protocol model (model.hh) and the link-level retry model
 * (retry_model.hh).
 *
 * Every state is stored once, under its canonical bytes (`S::key()`),
 * with the index of the state it was first reached from and the label
 * of that step. States are expanded in the order they were found, so
 * the first violation is one of minimal depth, and its counterexample
 * is read back along the parent indices. A stage supplies successors
 * and checks, and decides whether a step's error is looked at before
 * the step is deduplicated or after.
 */

#ifndef HMG_VERIFY_SEARCH_HH
#define HMG_VERIFY_SEARCH_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.hh"

namespace hmg::verify
{

/** Result of one exhaustive exploration. */
struct MckResult
{
    bool ok = false;
    std::uint64_t statesExplored = 0;
    std::uint64_t transitionsTaken = 0;
    std::uint64_t finalStates = 0; //!< states with nothing left to do
    /** First violation found (empty when ok). */
    std::string violation;
    /** Minimal counterexample: one action label per step from the
     *  initial state to the violating state (empty when ok). */
    std::vector<std::string> trace;
};

/** Breadth-first search with parent links over states of type S. */
template <typename S>
class Search
{
  public:
    using Index = std::uint32_t;
    /** What step() returns for a state reached before. */
    static constexpr Index kSeen = ~Index{0};

    explicit Search(S init)
    {
        res_.ok = true;
        add(std::move(init), 0, {});
    }

    /**
     * Copy the next state to expand into `s`, its index into `at`.
     * @return false once all are expanded or a violation ended the search
     */
    bool
    next(Index &at, S &s)
    {
        if (!res_.ok || head_ == states_.size())
            return false;
        at = head_++;
        s = states_[at];
        return true;
    }

    /** Take step `label` from state `from` to `s`. @return the index
     *  of `s`, or kSeen when it was reached before. */
    Index
    step(Index from, S s, std::string label)
    {
        ++res_.transitionsTaken;
        return add(std::move(s), from, std::move(label));
    }

    /** Count a state with no successor that violates nothing. */
    void terminal() { ++res_.finalStates; }

    /** States found so far. */
    std::size_t size() const { return states_.size(); }

    /** Stop at violation `why`, reached at state `at`, or by a further
     *  step `label` from it that is not taken. */
    void
    fail(Index at, std::string why, std::string label = {})
    {
        res_.ok = false;
        res_.violation = std::move(why);
        for (Index i = at; i != 0; i = parent_[i])
            res_.trace.push_back(label_[i]);
        std::reverse(res_.trace.begin(), res_.trace.end());
        if (!label.empty())
            res_.trace.push_back(std::move(label));
    }

    MckResult
    result()
    {
        res_.statesExplored = states_.size();
        return std::move(res_);
    }

  private:
    Index
    add(S s, Index parent, std::string label)
    {
        const auto i = static_cast<Index>(states_.size());
        if (!seen_.tryEmplace(s.key(), i).second)
            return kSeen;
        states_.push_back(std::move(s));
        parent_.push_back(parent);
        label_.push_back(std::move(label));
        return i;
    }

    MckResult res_;
    std::vector<S> states_;
    std::vector<Index> parent_;
    std::vector<std::string> label_;
    FlatMap<std::string, Index> seen_;
    std::size_t head_ = 0; //!< the next state to expand
};

} // namespace hmg::verify

#endif // HMG_VERIFY_SEARCH_HH

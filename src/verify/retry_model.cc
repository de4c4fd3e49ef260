#include "verify/retry_model.hh"

#include <algorithm>
#include <deque>
#include <map>
#include <utility>

#include "common/log.hh"

namespace hmg::verify
{

namespace
{

/**
 * One state of the abstract go-back-N instance. Channels are FIFO (the
 * transport's per-(src,dst) order guarantee); acks are cumulative
 * ("everything below `a` received"), matching a replay buffer that
 * frees entries up to the acked sequence number.
 */
struct RetryState
{
    std::uint8_t base = 0;     ///< oldest unacked sequence number
    std::uint8_t next = 0;     ///< next fresh sequence number to send
    std::uint8_t expected = 0; ///< receiver's in-order cursor
    std::uint8_t delivered = 0; ///< bitmask of delivered seqs
    std::uint8_t budget = 0;   ///< remaining loss events
    std::vector<std::uint8_t> frames; ///< in-flight frames (seq)
    std::vector<std::uint8_t> acks;   ///< in-flight cumulative acks

    /** Canonical byte encoding for the visited set. */
    std::string
    key() const
    {
        std::string k;
        k.reserve(7 + frames.size() + acks.size());
        k.push_back(static_cast<char>(base));
        k.push_back(static_cast<char>(next));
        k.push_back(static_cast<char>(expected));
        k.push_back(static_cast<char>(delivered));
        k.push_back(static_cast<char>(budget));
        k.push_back(static_cast<char>(frames.size()));
        for (std::uint8_t f : frames)
            k.push_back(static_cast<char>(f));
        for (std::uint8_t a : acks)
            k.push_back(static_cast<char>(a));
        return k;
    }
};

/** The explorer: BFS with parent links for counterexample traces. */
class RetryExplorer
{
  public:
    explicit RetryExplorer(const RetryMckConfig &cfg) : cfg_(cfg) {}

    RetryMckResult
    run()
    {
        RetryState init;
        init.budget = static_cast<std::uint8_t>(cfg_.lossBudget);
        visit(init, std::string(), std::string());
        while (res_.ok && !queue_.empty()) {
            RetryState s = std::move(queue_.front());
            queue_.pop_front();
            expand(s);
        }
        return std::move(res_);
    }

  private:
    void
    visit(const RetryState &s, const std::string &parent,
          const std::string &action)
    {
        const std::string k = s.key();
        if (parents_.count(k))
            return;
        parents_.emplace(k, std::make_pair(parent, action));
        queue_.push_back(s);
        ++res_.statesExplored;
    }

    void
    fail(const RetryState &s, const std::string &action,
         const std::string &why)
    {
        res_.ok = false;
        res_.violation = why;
        // Reconstruct the action path root -> s, then the failing step.
        std::vector<std::string> path;
        std::string k = s.key();
        while (true) {
            const auto &[parent, act] = parents_.at(k);
            if (act.empty())
                break;
            path.push_back(act);
            k = parent;
        }
        res_.trace.assign(path.rbegin(), path.rend());
        if (!action.empty())
            res_.trace.push_back(action);
    }

    /** Apply the receiver's frame-acceptance rule; false on violation. */
    bool
    receive(RetryState &t, std::uint8_t seq, const RetryState &from,
            const std::string &action)
    {
        if (cfg_.seedAcceptAnySeq) {
            // Bug hook: no in-order filter — accept whatever arrives.
            if (t.delivered & (1u << seq)) {
                fail(from, action,
                     "duplicate delivery of seq " + std::to_string(seq));
                return false;
            }
            if (seq != t.expected) {
                fail(from, action,
                     "out-of-order delivery: got seq " +
                         std::to_string(seq) + ", expected " +
                         std::to_string(t.expected));
                return false;
            }
        }
        if (seq == t.expected) {
            // In-order accept: deliver exactly once, advance, ack.
            if (t.delivered & (1u << seq)) {
                fail(from, action,
                     "duplicate delivery of seq " + std::to_string(seq));
                return false;
            }
            t.delivered = static_cast<std::uint8_t>(
                t.delivered | (1u << seq));
            ++t.expected;
        }
        // Accepted or filtered: (re-)ack the in-order prefix. The
        // cumulative dup-ack on a filtered retransmission is what
        // resynchronizes a sender whose acks were lost.
        t.acks.push_back(t.expected);
        return true;
    }

    void
    expand(const RetryState &s)
    {
        const std::string k = s.key();
        bool any = false;
        auto step = [&](RetryState t, const std::string &action) {
            any = true;
            ++res_.transitionsTaken;
            visit(t, k, action);
        };

        // send: a fresh frame while window space remains.
        if (s.next < cfg_.numMsgs && s.next < s.base + cfg_.window) {
            RetryState t = s;
            t.frames.push_back(t.next);
            ++t.next;
            step(std::move(t), "send " + std::to_string(s.next));
        }
        // timeout: go-back-N replay of every unacked frame. Enabled
        // only when both channels are idle — the fairness assumption
        // that a timeout fires only after in-flight traffic settles,
        // without which no ARQ has bounded behavior.
        if (s.frames.empty() && s.acks.empty() && s.base < s.next) {
            RetryState t = s;
            for (std::uint8_t q = t.base; q < t.next; ++q)
                t.frames.push_back(q);
            step(std::move(t), "timeout: resend " +
                                   std::to_string(s.base) + ".." +
                                   std::to_string(s.next - 1));
        }
        // frame channel: lose or deliver the head (FIFO).
        if (!s.frames.empty()) {
            const std::uint8_t seq = s.frames.front();
            if (s.budget > 0) {
                RetryState t = s;
                t.frames.erase(t.frames.begin());
                --t.budget;
                step(std::move(t),
                     "lose frame " + std::to_string(seq));
            }
            {
                RetryState t = s;
                t.frames.erase(t.frames.begin());
                const std::string action =
                    "deliver frame " + std::to_string(seq);
                if (!receive(t, seq, s, action))
                    return;
                step(std::move(t), action);
            }
        }
        // ack channel: lose or deliver the head.
        if (!s.acks.empty()) {
            const std::uint8_t a = s.acks.front();
            if (s.budget > 0) {
                RetryState t = s;
                t.acks.erase(t.acks.begin());
                --t.budget;
                step(std::move(t), "lose ack " + std::to_string(a));
            }
            {
                RetryState t = s;
                t.acks.erase(t.acks.begin());
                // Cumulative: frees replay entries below a. Stale
                // (reordered-loss) acks never move base backwards.
                t.base = std::max(t.base, a);
                step(std::move(t), "deliver ack " + std::to_string(a));
            }
        }

        if (!any) {
            // Terminal state: nothing in flight, nothing to send or
            // resend. Delivery liveness == every terminal is complete.
            ++res_.finalStates;
            const auto full = static_cast<std::uint8_t>(
                (1u << cfg_.numMsgs) - 1);
            if (s.expected != cfg_.numMsgs || s.delivered != full ||
                s.base != cfg_.numMsgs)
                fail(s, std::string(),
                     "terminal state with incomplete delivery: "
                     "expected cursor " +
                         std::to_string(s.expected) + "/" +
                         std::to_string(cfg_.numMsgs) +
                         ", delivered mask " +
                         std::to_string(s.delivered) + ", base " +
                         std::to_string(s.base));
        }
    }

    RetryMckConfig cfg_;
    RetryMckResult res_;
    std::deque<RetryState> queue_;
    /** state key -> (parent key, action that produced it). Ordered map:
     *  exploration order must be deterministic for stable traces. */
    std::map<std::string, std::pair<std::string, std::string>> parents_;
};

} // namespace

RetryMckResult
exploreRetry(const RetryMckConfig &cfg)
{
    hmg_assert(cfg.numMsgs >= 1 && cfg.numMsgs <= 8); // bitmask width
    hmg_assert(cfg.window >= 1);
    hmg_assert(cfg.lossBudget <= kMaxLossBudget);
    RetryExplorer ex(cfg);
    return ex.run();
}

} // namespace hmg::verify

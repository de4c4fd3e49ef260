#include "verify/lint/cdg.hh"

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/fabric.hh"
#include "verify/spec.hh"

namespace hmg::verify::lint
{

namespace
{

/** One physical credit pool (Port input queue or NIC backlog). */
struct Node
{
    std::string name;
    bool unbounded = false;
    std::uint64_t capacityBytes = 0;
};

/** `from` holds space while waiting for space in `to`. */
struct Edge
{
    std::size_t from;
    std::size_t to;
    std::string label;
};

struct Graph
{
    std::vector<Node> nodes;
    std::vector<Edge> edges;
    /** Emission edges cut by the unbounded-NIC escape (real system). */
    std::vector<Edge> escapes;

    std::size_t
    addNode(std::string name, bool unbounded, std::uint64_t cap)
    {
        nodes.push_back({std::move(name), unbounded, cap});
        return nodes.size() - 1;
    }
};

/** Classes that never leave their GPU (no switch traversal). */
bool
intraGpuOnly(const char *className)
{
    const std::string n = className;
    return n == "Inv.refan" || n == "RelMarker.relay";
}

/**
 * The credit-pool graph over the machine in `opts`, drawn from its
 * fabric: one node per link (its pool, in the fabric's bytes) and one
 * per GPM NIC. `opts.seedCdgCycle` keeps every emission edge blocking.
 */
Graph
buildGraph(const LintOptions &opts, LintReport &report)
{
    Graph g;
    const Fabric fabric(opts.cfg);
    const std::vector<FabricLink> &links = fabric.links();
    const std::uint32_t gpms = opts.cfg.totalGpms();

    std::size_t count = 0;
    const MsgClass *classes = msgClasses(count);
    std::string interClasses, intraClasses;
    for (std::size_t i = 0; i < count; ++i) {
        if (!intraGpuOnly(classes[i].name)) {
            if (!interClasses.empty())
                interClasses += ", ";
            interClasses += classes[i].name;
        }
        if (!intraClasses.empty())
            intraClasses += ", ";
        intraClasses += classes[i].name;
    }

    for (const FabricLink &k : links)
        g.addNode(k.name, /*unbounded=*/false, k.poolBytes);
    const std::size_t nic0 = g.nodes.size();
    for (GpmId m = 0; m < gpms; ++m)
        g.addNode("gpm" + std::to_string(m) + ".nic", true, 0);

    // Route-progression edges: a head occupying `from` waits for
    // credit in `to` (noc/port.hh's canAccept gate), for every hop the
    // fabric's route takes over all (src, dst) pairs, each edge once.
    std::vector<std::vector<std::uint32_t>> seen(links.size());
    for (GpmId src = 0; src < gpms; ++src) {
        const std::uint32_t entry = fabric.entry(src).link;
        g.edges.push_back({nic0 + src, entry,
                           "NIC backlog drains into the GPM egress as "
                           "credits free (all classes)"});
        for (GpmId dst = 0; dst < gpms; ++dst) {
            if (dst == src)
                continue;
            for (std::uint32_t l = entry, n;
                 (n = fabric.next(l, src, dst).link) != Fabric::kDeliver;
                 l = n) {
                if (std::find(seen[l].begin(), seen[l].end(), n) !=
                    seen[l].end())
                    continue;
                seen[l].push_back(n);
                const bool intra = links[l].tier == LinkTier::Gpm &&
                                   links[n].tier == LinkTier::Gpm;
                g.edges.push_back(
                    {l, n,
                     std::string(fabric.tier(links[l].tier).hop) +
                         " hop [" + (intra ? intraClasses : interClasses) +
                         "]"});
            }
        }
    }

    // Handler-emission edges: consuming class X at a GPM ingress may
    // synchronously emit class Y, which enters at the local NIC. In
    // the real transport the NIC is unbounded and every handler
    // consumes unconditionally, so these dependencies terminate in a
    // pool that can always accept — they are the escape that makes the
    // rest of the graph acyclic. The seed models a bounded, blocking
    // injection queue by keeping them.
    std::size_t depCount = 0;
    const MsgDep *deps = msgDeps(depCount);
    for (std::size_t d = 0; d < depCount; ++d) {
        if (deps[d].from >= count || deps[d].to >= count) {
            Finding f;
            f.family = "cdg";
            f.check = "bad-dep";
            f.file = kTablesFile;
            f.message = "msgDeps()[" + std::to_string(d) +
                        "] references a message class out of range";
            report.add(std::move(f));
            continue;
        }
        for (std::uint32_t m = 0; m < gpms; ++m) {
            Edge e{fabric.linkOf(LinkTier::Gpm, LinkDir::Ingress, m),
                   nic0 + m,
                   std::string("handling ") + classes[deps[d].from].name +
                       " emits " + classes[deps[d].to].name + " (" +
                       deps[d].why + ")"};
            if (opts.seedCdgCycle)
                g.edges.push_back(std::move(e));
            else
                g.escapes.push_back(std::move(e));
        }
    }
    return g;
}

/**
 * Shortest cycle through any node, by BFS from every node over the
 * blocking edges. Returns the edge sequence, empty when acyclic.
 */
std::vector<const Edge *>
minimalCycle(const Graph &g)
{
    const std::size_t n = g.nodes.size();
    std::vector<std::vector<const Edge *>> out(n);
    for (const Edge &e : g.edges)
        out[e.from].push_back(&e);

    std::vector<const Edge *> best;
    for (std::size_t root = 0; root < n; ++root) {
        // BFS from root; the first edge closing back on root yields
        // the shortest cycle through it.
        std::vector<const Edge *> via(n, nullptr);
        std::vector<std::size_t> queue = {root};
        std::vector<bool> seen(n, false);
        seen[root] = true;
        const Edge *closing = nullptr;
        for (std::size_t qi = 0; qi < queue.size() && !closing; ++qi) {
            for (const Edge *e : out[queue[qi]]) {
                if (e->to == root) {
                    closing = e;
                    break;
                }
                if (!seen[e->to]) {
                    seen[e->to] = true;
                    via[e->to] = e;
                    queue.push_back(e->to);
                }
            }
        }
        if (!closing)
            continue;
        std::vector<const Edge *> cycle = {closing};
        for (std::size_t at = closing->from; at != root;
             at = via[at]->from)
            cycle.push_back(via[at]);
        std::reverse(cycle.begin(), cycle.end());
        if (best.empty() || cycle.size() < best.size())
            best = std::move(cycle);
    }
    return best;
}

/** Append the minimal-cycle finding (if any) for a built graph. */
void
reportCycle(const Graph &g, const std::string &suffix, LintReport &report)
{
    const std::vector<const Edge *> cycle = minimalCycle(g);
    if (cycle.empty())
        return;

    Finding f;
    f.family = "cdg";
    f.check = "cycle";
    f.file = "src/noc/network.cc";
    f.message = "channel-dependency cycle of length " +
                std::to_string(cycle.size()) + suffix;
    for (const Edge *e : cycle) {
        const Node &from = g.nodes[e->from];
        const Node &to = g.nodes[e->to];
        auto cap = [](const Node &n) {
            return n.unbounded ? std::string("unbounded")
                               : std::to_string(n.capacityBytes) + "B";
        };
        f.counterexample.push_back(from.name + " (" + cap(from) +
                                   ") --[" + e->label + "]--> " +
                                   to.name + " (" + cap(to) + ")");
    }
    report.add(std::move(f));
}

} // namespace

void
analyzeMsgDeps(std::span<const MsgDep> deps, LintReport &report)
{
    // Iterative DFS colouring: an edge into a Grey class (one still on
    // the current path) closes a cycle.
    std::size_t count = 0;
    const MsgClass *classes = msgClasses(count);
    enum Colour : std::uint8_t { White, Grey, Black };
    std::vector<Colour> colour(count, White);
    std::vector<std::uint8_t> stack;
    for (std::size_t root = 0; root < count; ++root) {
        if (colour[root] != White)
            continue;
        stack.assign(1, static_cast<std::uint8_t>(root));
        while (!stack.empty()) {
            const std::uint8_t n = stack.back();
            if (colour[n] != White) {
                colour[n] = Black;
                stack.pop_back();
                continue;
            }
            colour[n] = Grey;
            for (const MsgDep &d : deps) {
                if (d.from != n || d.to >= count)
                    continue;
                if (colour[d.to] == White) {
                    stack.push_back(d.to);
                    continue;
                }
                if (colour[d.to] != Grey)
                    continue;
                Finding f;
                f.family = "cdg";
                f.check = "msg-class-cycle";
                f.file = kTablesFile;
                f.message = std::string("message-class dependency cycle "
                                        "through ") +
                            classes[d.to].name +
                            ": a handler chain can wait on its own "
                            "emission";
                f.counterexample.push_back(
                    std::string("closing edge: handling ") +
                    classes[d.from].name + " emits " + classes[d.to].name +
                    " (" + d.why + ")");
                report.add(std::move(f));
            }
        }
    }
}

void
analyzeCdg(const LintOptions &opts, LintReport &report)
{
    std::size_t depCount = 0;
    const MsgDep *deps = msgDeps(depCount);
    analyzeMsgDeps({deps, depCount}, report);

    std::size_t count = 0;
    msgClasses(count);
    Graph g = buildGraph(opts, report);
    report.stat("cdg.nodes", g.nodes.size());
    report.stat("cdg.edges", g.edges.size());
    report.stat("cdg.escape_edges", g.escapes.size());
    report.stat("cdg.msg_classes", count);

    reportCycle(g,
                opts.seedCdgCycle
                    ? " under a bounded injection queue: every pool in "
                      "the loop can fill while waiting on the next, so "
                      "the transport can deadlock"
                    : ": the credit pools below can deadlock",
                report);
}

} // namespace hmg::verify::lint

/**
 * @file
 * Implementation of the exhaustive model checker declared in model.hh.
 *
 * The abstraction is deliberately small and fully deterministic: a
 * packed byte-array state (MState), successor generation that steps
 * verify::applyDirEvent over the same transition table the timing
 * simulator executes, and breadth-first search with a hashed visited
 * set — so the first violation found is a minimal-depth counterexample.
 *
 * Protocol fidelity notes (mirroring the walk in core/home_chain.cc;
 * upFrom() takes its chain step):
 *  - sharers are recorded at the home in the same atomic step that
 *    emits the data response, never at request arrival;
 *  - every requester fills its local L2 from the response, and the GPU
 *    home fills from a forwarded system-home response;
 *  - a store updates the writer's L2 at issue and lands at each home
 *    level via write-through messages, invalidations fanning from the
 *    pre-update sharer bits;
 *  - per-(src,dst) channels are FIFO, like the transport's ordered
 *    hops — the property that closes the response/invalidation
 *    replant window.
 */

#include "verify/model.hh"

#include <cstring>
#include <string>
#include <vector>

#include "common/log.hh"
#include "core/protocol.hh"
#include "core/sharer_ops.hh"
#include "verify/apply.hh"
#include "verify/spec.hh"

namespace hmg::verify
{

const char *
toString(Workload w)
{
    switch (w) {
      case Workload::Free:       return "free";
      case Workload::MpSys:      return "mp_sys";
      case Workload::MpGpu:      return "mp_gpu";
      case Workload::MpGpuCross: return "mp_gpu_cross";
      case Workload::SbSys:      return "sb_sys";
      case Workload::WrcSys:     return "wrc_sys";
    }
    return "?";
}

namespace
{

constexpr std::uint32_t kMaxNodes = 2;
constexpr std::uint32_t kMaxGpus = 4;
constexpr std::uint32_t kMaxGpms = 8;
constexpr std::uint32_t kMaxThreads = 4;
constexpr std::uint32_t kMaxRegs = 3;
constexpr std::uint32_t kChanCap = 6;
constexpr std::uint8_t kRegUnset = 0xff;
/** Backstop on exploration size; the shipped workloads stay far under. */
constexpr std::uint64_t kStateBound = 4ull * 1000 * 1000;

/** Model message kinds (hop-level, matching spec.hh's class split). */
enum MsgKind : std::uint8_t
{
    MReadReq,   //!< requester -> serving home (a = requester, ver = scope)
    MReadReqF,  //!< GPU home -> system home (a = original requester)
    MResp,      //!< serving home -> requester (ver = version)
    MRespF,     //!< system home -> GPU home (a = original requester)
    MWt,        //!< writer -> first home level (a = writer)
    MWtF,       //!< GPU home -> system home (a = original writer)
    MInv,       //!< invalidate one line
};

const char *
kindName(std::uint8_t k)
{
    switch (k) {
      case MReadReq:  return "ReadReq";
      case MReadReqF: return "ReadReqFwd";
      case MResp:     return "ReadResp";
      case MRespF:    return "ReadRespFwd";
      case MWt:       return "WT";
      case MWtF:      return "WTFwd";
      case MInv:      return "Inv";
    }
    return "?";
}

struct Msg
{
    std::uint8_t kind;
    std::uint8_t line;
    std::uint8_t ver;
    std::uint8_t a;
};

/**
 * One packed model state. Every member is a uint8_t array, so the
 * struct has no padding and can be hashed/compared as raw bytes.
 * Unused channel slots are kept zeroed by the dequeue path.
 */
struct MState
{
    std::uint8_t mem[kMaxLines];                 //!< authoritative version
    std::uint8_t cache[kMaxGpms][kMaxLines];     //!< 0 = none, else ver+1
    std::uint8_t sysP[kMaxLines];                //!< system-home entry
    std::uint8_t sysGpm[kMaxLines];
    std::uint8_t sysGpu[kMaxLines];              //!< local GPU indices
    std::uint8_t sysNode[kMaxLines];             //!< node bits (multi-node)
    std::uint8_t ghP[kMaxGpus][kMaxLines];       //!< GPU-home entries (HMG)
    std::uint8_t ghGpm[kMaxGpus][kMaxLines];
    std::uint8_t nhP[kMaxNodes][kMaxLines];      //!< node-home entries
    std::uint8_t nhGpm[kMaxNodes][kMaxLines];
    std::uint8_t nhGpu[kMaxNodes][kMaxLines];
    std::uint8_t pc[kMaxThreads];
    std::uint8_t waiting[kMaxThreads];           //!< blocked on a load
    std::uint8_t pendG[kMaxThreads];             //!< WTs short of GPU level
    std::uint8_t pendS[kMaxThreads];             //!< WTs short of sys level
    std::uint8_t reg[kMaxThreads][kMaxRegs];     //!< observed versions
    std::uint8_t nextVer;
    std::uint8_t chanN[kMaxGpms][kMaxGpms];
    Msg chanQ[kMaxGpms][kMaxGpms][kChanCap];

    /** Canonical key for the visited set: the raw bytes. */
    std::string
    key() const
    {
        return std::string(reinterpret_cast<const char *>(this),
                           sizeof(MState));
    }
};

static_assert(sizeof(MState) ==
                  kMaxLines * 5 + kMaxGpms * kMaxLines +
                      kMaxGpus * kMaxLines * 2 +
                      kMaxNodes * kMaxLines * 3 + kMaxThreads * 4 +
                      kMaxThreads * kMaxRegs + 1 + kMaxGpms * kMaxGpms +
                      kMaxGpms * kMaxGpms * kChanCap * sizeof(Msg),
              "MState must stay padding-free for byte hashing");

enum class OpK : std::uint8_t { Ld, St, Acq, Rel };

struct Op
{
    OpK k;
    std::uint8_t line;
    Scope scope;
    std::uint8_t reg;
};

struct Program
{
    GpmId gpm;
    std::vector<Op> ops;
};

std::string
gpmName(GpmId g)
{
    return "gpm" + std::to_string(g);
}

class Explorer
{
  public:
    explicit Explorer(const MckConfig &cfg);
    MckResult run();

  private:
    struct Succ
    {
        MState st;
        std::string label;
        std::string err; //!< model-capacity problem while generating
    };

    // Line `l`'s homes and chain step, from the helpers the
    // simulator's walk uses (core/sharer_ops.hh).
    GpmId hOf(std::uint8_t l) const { return homeOf_[l]; }
    GpmId
    ghOfLine(GpuId g, std::uint8_t l) const
    {
        return topo_.gpuHome(g, hOf(l));
    }
    GpmId
    nhOfLine(NodeId n, std::uint8_t l) const
    {
        return topo_.nodeHome(n, hOf(l));
    }
    bool multiNode() const { return cfg_.hier && cfg_.numNodes > 1; }
    bool
    isNodeHome(GpmId g, std::uint8_t l) const
    {
        return multiNode() && nhOfLine(topo_.nodeOfGpm(g), l) == g;
    }
    /** The next home up the chain from home `from`. */
    GpmId
    upFrom(GpmId from, std::uint8_t l) const
    {
        return nextHome(topo_, cfg_.hier, multiNode(), from, hOf(l));
    }

    void setupWorkload();

    DirSnapshot readEntry(const MState &s, GpmId node,
                          std::uint8_t l) const;
    void writeEntry(MState &s, GpmId node, std::uint8_t l, bool present,
                    std::uint32_t gpm, std::uint32_t gpu,
                    std::uint32_t node_bits) const;
    bool entryPresentAt(const MState &s, GpmId node, std::uint8_t l) const;
    void applyAt(MState &s, GpmId node, GpmId via, std::uint8_t l,
                 DirEvent ev);
    void evictFor(MState &s, GpmId node, std::uint8_t line);
    void send(MState &s, GpmId src, GpmId dst, Msg m);

    void successors(const MState &s, std::vector<Succ> &out);
    bool threadStep(const MState &s, int t, Succ &sc);
    void deliver(MState &s, GpmId src, GpmId dst, const Msg &m);
    void resume(MState &s, GpmId gpm, std::uint8_t ver);
    bool relReady(const MState &s, int t, Scope sc) const;

    bool allDone(const MState &s) const;
    std::string checkState(const MState &s) const;
    std::string coverageViolation(const MState &s) const;
    std::string forbiddenOutcome(const MState &s) const;
    bool invInFlight(const MState &s, std::uint8_t l) const;
    bool invFromGpuInFlight(const MState &s, GpuId g) const;
    bool anyInvInFlight(const MState &s) const;
    bool wtInFlight(const MState &s, GpuId g, std::uint8_t l) const;
    bool wtFromNodeInFlight(const MState &s, NodeId n,
                            std::uint8_t l) const;

    MckConfig cfg_;
    SharerTopology topo_{};
    std::uint32_t numGpms_ = 0;
    std::uint8_t homeOf_[kMaxLines] = {};
    std::vector<Program> progs_;
    int thrAt_[kMaxGpms] = {};
    /** Private copy, so the bad-row test hook never touches the
     *  table the simulator dispatches through. */
    const std::vector<Transition> table_;
    std::string pendingErr_;
};

Explorer::Explorer(const MckConfig &cfg)
    : cfg_(cfg),
      table_(seededTable(cfg.seedBadRow ? TableSeed::BadStoreRow
                                        : TableSeed::None))
{
    hmg_assert(cfg_.numNodes >= 1 && cfg_.numNodes <= kMaxNodes);
    hmg_assert(cfg_.numGpus % cfg_.numNodes == 0);
    // The node-tier workloads hardcode the 2x2x2 GPM placement.
    if (cfg_.numNodes > 1)
        hmg_assert(cfg_.hier && cfg_.numGpus == 4 &&
                   cfg_.gpmsPerGpu == 2);
    topo_ = {cfg_.numGpus, cfg_.gpmsPerGpu, cfg_.numNodes};
    numGpms_ = cfg_.numGpus * cfg_.gpmsPerGpu;
    hmg_assert(cfg_.numGpus <= kMaxGpus && numGpms_ <= kMaxGpms);
    hmg_assert(cfg_.dirEntriesPerNode >= 1 &&
               cfg_.dirEntriesPerNode <= kMaxLines);
    setupWorkload();
    hmg_assert(cfg_.numLines <= kMaxLines);
    hmg_assert(progs_.size() <= kMaxThreads);
    for (GpmId g = 0; g < kMaxGpms; ++g)
        thrAt_[g] = -1;
    for (std::size_t t = 0; t < progs_.size(); ++t) {
        hmg_assert(thrAt_[progs_[t].gpm] < 0); // one thread per GPM
        thrAt_[progs_[t].gpm] = static_cast<int>(t);
    }
}

void
Explorer::setupWorkload()
{
    auto T = [&](GpmId gpm, std::vector<Op> ops) {
        progs_.push_back({gpm, std::move(ops)});
    };
    auto Ld = [](std::uint8_t l, Scope s, std::uint8_t r) {
        return Op{OpK::Ld, l, s, r};
    };
    auto St = [](std::uint8_t l) { return Op{OpK::St, l, Scope::None, 0}; };
    auto Acq = [](Scope s) { return Op{OpK::Acq, 0, s, 0}; };
    auto Rel = [](Scope s) { return Op{OpK::Rel, 0, s, 0}; };
    const Scope gpu = Scope::Gpu, sys = Scope::Sys, cta = Scope::Cta;

    if (cfg_.numNodes > 1) {
        // 2 nodes x 2 GPUs x 2 GPMs: node 0 = gpms 0-3 (gpus 0-1),
        // node 1 = gpms 4-7 (gpus 2-3). For a line homed at gpm0, GPU
        // homes are gpms 0/2/4/6 and node 1's node home is gpm4.
        // Placements are chosen so every workload exercises a
        // requester -> GPU home -> node home -> system home chain with
        // all four hops on distinct GPMs (plus the collapsed variants).
        switch (cfg_.workload) {
          case Workload::Free:
            // Both lines homed at gpm0: one-entry directories replace
            // at the system home, at node 1's node home (gpm4, via
            // gpm5/gpm7 traffic) and at gpm7's GPU home (gpm6).
            cfg_.numLines = 2;
            homeOf_[0] = 0;
            homeOf_[1] = 0;
            T(0, {St(0), Rel(gpu)});
            T(3, {Ld(0, cta, 0), Ld(1, cta, 1)});
            T(7, {Ld(0, cta, 0), Ld(1, cta, 1)});
            T(5, {St(1), Rel(sys)});
            break;
          case Workload::MpSys:
            // Writer on node 0 next to the data's home; reader on
            // node 1 at its own GPU home, so its data load and the
            // writer's flag store each walk the full three-level
            // chain (6 -> nh 4 -> 0 and 1's gh 0 -> nh 2 -> 6).
            cfg_.numLines = 2;
            homeOf_[0] = 0; // data (writer-node home)
            homeOf_[1] = 6; // flag (reader's GPM)
            T(1, {St(0), Rel(sys), St(1)});
            T(6, {Ld(0, cta, 0), Ld(1, cta, 1), Acq(sys), Ld(0, cta, 2)});
            break;
          case Workload::MpGpu:
            // Both threads on GPU 3 (node 1); data homed on the other
            // *node*, so the .gpu release must rely on the GPU home's
            // fresh copy held on the remote-node path.
            cfg_.numLines = 2;
            homeOf_[0] = 0; // data (remote-node home)
            homeOf_[1] = 6; // flag (writer-local home)
            T(6, {St(0), Rel(gpu), St(1)});
            T(7, {Ld(0, cta, 0), Ld(1, cta, 1), Acq(gpu), Ld(0, cta, 2)});
            break;
          case Workload::MpGpuCross:
            // Deliberately mis-scoped: .gpu fences across *nodes*.
            // Data homed on the reader's GPU (node 1), with the writer
            // its own GPU home *and* node home for the data line, so
            // the .gpu release completes locally while the
            // write-through is still crossing to gpm5 on a channel
            // disjoint from the flag path (1 -> 0 -> 4). The forbidden
            // outcome must stay reachable.
            cfg_.numLines = 2;
            homeOf_[0] = 5; // data (reader-side home, node 1)
            homeOf_[1] = 0; // flag
            T(1, {St(0), Rel(gpu), St(1)});
            T(4, {Ld(0, cta, 0), Ld(1, cta, 1), Acq(gpu), Ld(0, cta, 2)});
            break;
          case Workload::SbSys:
            // x homed on node 0, y on node 1; each .sys load crosses
            // the node boundary and must miss through to the far
            // system home.
            cfg_.numLines = 2;
            homeOf_[0] = 0; // x
            homeOf_[1] = 4; // y
            T(1, {St(0), Rel(sys), Ld(1, sys, 0)});
            T(5, {St(1), Rel(sys), Ld(0, sys, 0)});
            break;
          case Workload::WrcSys:
            // Three threads spanning both nodes; t5's flag2 store
            // walks the full 5 -> 4 -> 6 -> 2 chain.
            cfg_.numLines = 3;
            homeOf_[0] = 0; // data (node 0)
            homeOf_[1] = 6; // flag1 (node 1)
            homeOf_[2] = 2; // flag2 (node 0, other GPU)
            T(1, {St(0), Rel(sys), St(1)});
            T(5, {Ld(1, cta, 0), Acq(sys), Rel(sys), St(2)});
            T(3, {Ld(0, cta, 0), Ld(2, cta, 1), Acq(sys), Ld(0, cta, 2)});
            break;
        }
        return;
    }

    switch (cfg_.workload) {
      case Workload::Free:
        // Both lines homed on gpm0 so one-entry directories replace;
        // gpu1's GPU home (gpm2) collects both gh entries and receives
        // the re-fanned invalidations of gpm0's untracked store.
        cfg_.numLines = 2;
        homeOf_[0] = 0;
        homeOf_[1] = 0;
        T(0, {St(0), Rel(gpu)});
        T(1, {Ld(0, cta, 0), Ld(1, cta, 1)});
        T(2, {Ld(0, cta, 0), Ld(1, cta, 1)});
        T(3, {St(1), Rel(sys)});
        break;
      case Workload::MpSys:
        // data homed near the writer's GPU, flag on the reader's: the
        // flag store exercises the writer-is-own-GPU-home path and the
        // data store the cross-GPU re-fan.
        cfg_.numLines = 2;
        homeOf_[0] = 0; // data
        homeOf_[1] = 3; // flag
        T(1, {St(0), Rel(sys), St(1)});
        T(2, {Ld(0, cta, 0), Ld(1, cta, 1), Acq(sys), Ld(0, cta, 2)});
        break;
      case Workload::MpGpu:
        // Both threads on GPU 0; data homed on the *other* GPU so the
        // .gpu release must rely on the GPU home's fresh copy.
        cfg_.numLines = 2;
        homeOf_[0] = 2; // data (remote home)
        homeOf_[1] = 0; // flag (writer-local home)
        T(0, {St(0), Rel(gpu), St(1)});
        T(1, {Ld(0, cta, 0), Ld(1, cta, 1), Acq(gpu), Ld(0, cta, 2)});
        break;
      case Workload::MpGpuCross:
        // Deliberately mis-scoped: .gpu fences across GPUs, data homed
        // on the reader's GPU so its invalidation is fanned by a home
        // the writer's .gpu release never waits on. The forbidden
        // outcome is *reachable* — exploreProtocol must report it.
        cfg_.numLines = 2;
        homeOf_[0] = 3; // data (reader-side home)
        homeOf_[1] = 0; // flag
        T(1, {St(0), Rel(gpu), St(1)});
        T(2, {Ld(0, cta, 0), Ld(1, cta, 1), Acq(gpu), Ld(0, cta, 2)});
        break;
      case Workload::SbSys:
        cfg_.numLines = 2;
        homeOf_[0] = 0; // x
        homeOf_[1] = 3; // y
        T(1, {St(0), Rel(sys), Ld(1, sys, 0)});
        T(2, {St(1), Rel(sys), Ld(0, sys, 0)});
        break;
      case Workload::WrcSys:
        cfg_.numLines = 3;
        homeOf_[0] = 0; // data
        homeOf_[1] = 3; // flag1
        homeOf_[2] = 2; // flag2
        T(1, {St(0), Rel(sys), St(1)});
        T(2, {Ld(1, cta, 0), Acq(sys), Rel(sys), St(2)});
        T(3, {Ld(0, cta, 0), Ld(2, cta, 1), Acq(sys), Ld(0, cta, 2)});
        break;
    }
}

DirSnapshot
Explorer::readEntry(const MState &s, GpmId node, std::uint8_t l) const
{
    if (!cfg_.hier || node == hOf(l))
        return {s.sysP[l] != 0, s.sysGpm[l], s.sysGpu[l], s.sysNode[l]};
    if (isNodeHome(node, l)) {
        const NodeId n = topo_.nodeOfGpm(node);
        return {s.nhP[n][l] != 0, s.nhGpm[n][l], s.nhGpu[n][l], 0};
    }
    const GpuId g = topo_.gpuOf(node);
    return {s.ghP[g][l] != 0, s.ghGpm[g][l], 0, 0};
}

void
Explorer::writeEntry(MState &s, GpmId node, std::uint8_t l, bool present,
                     std::uint32_t gpm, std::uint32_t gpu,
                     std::uint32_t node_bits) const
{
    if (!cfg_.hier || node == hOf(l)) {
        s.sysP[l] = present ? 1 : 0;
        s.sysGpm[l] = static_cast<std::uint8_t>(gpm);
        s.sysGpu[l] = static_cast<std::uint8_t>(gpu);
        s.sysNode[l] = static_cast<std::uint8_t>(node_bits);
        return;
    }
    hmg_assert(node_bits == 0); // only the system home tracks nodes
    if (isNodeHome(node, l)) {
        const NodeId n = topo_.nodeOfGpm(node);
        s.nhP[n][l] = present ? 1 : 0;
        s.nhGpm[n][l] = static_cast<std::uint8_t>(gpm);
        s.nhGpu[n][l] = static_cast<std::uint8_t>(gpu);
        return;
    }
    const GpuId g = topo_.gpuOf(node);
    hmg_assert(gpu == 0); // GPU homes track local GPM bits only
    s.ghP[g][l] = present ? 1 : 0;
    s.ghGpm[g][l] = static_cast<std::uint8_t>(gpm);
}

bool
Explorer::entryPresentAt(const MState &s, GpmId node, std::uint8_t l) const
{
    if (node == hOf(l))
        return s.sysP[l] != 0;
    if (isNodeHome(node, l))
        return s.nhP[topo_.nodeOfGpm(node)][l] != 0;
    if (cfg_.hier && ghOfLine(topo_.gpuOf(node), l) == node)
        return s.ghP[topo_.gpuOf(node)][l] != 0;
    return false;
}

void
Explorer::send(MState &s, GpmId src, GpmId dst, Msg m)
{
    std::uint8_t &n = s.chanN[src][dst];
    if (n >= kChanCap) {
        if (pendingErr_.empty())
            pendingErr_ = "model channel " + gpmName(src) + "->" +
                          gpmName(dst) +
                          " exceeded its bound (raise kChanCap)";
        return;
    }
    s.chanQ[src][dst][n++] = m;
}

void
Explorer::applyAt(MState &s, GpmId node, GpmId via, std::uint8_t l,
                  DirEvent ev)
{
    // Every directory event lands at one of the line's homes.
    hmg_assert(node == hOf(l) ||
               (cfg_.hier && (isNodeHome(node, l) ||
                              ghOfLine(topo_.gpuOf(node), l) == node)));
    const DirSnapshot pre = readEntry(s, node, l);
    const ApplyOutcome out = applyDirEvent(
        table_, topo_, cfg_.hier, node, via, ev, pre, hOf(l),
        [&](GpmId tgt) { send(s, node, tgt, Msg{MInv, l, 0, 0}); });

    switch (out.commit) {
      case DirCommit::Keep:
        return;
      case DirCommit::Remove:
        writeEntry(s, node, l, false, 0, 0, 0);
        return;
      case DirCommit::WriteBits:
        break;
      case DirCommit::RemoveAllocate:
        writeEntry(s, node, l, false, 0, 0, 0);
        [[fallthrough]];
      case DirCommit::Allocate:
        if (!readEntry(s, node, l).present)
            evictFor(s, node, l);
        break;
    }
    writeEntry(s, node, l, true, out.gpmBits, out.gpuBits, out.nodeBits);
}

void
Explorer::evictFor(MState &s, GpmId node, std::uint8_t line)
{
    std::uint32_t count = 0;
    int victim = -1;
    for (std::uint8_t l = 0; l < cfg_.numLines; ++l) {
        if (!entryPresentAt(s, node, l))
            continue;
        ++count;
        if (victim < 0 && l != line)
            victim = l;
    }
    if (count < cfg_.dirEntriesPerNode)
        return;
    hmg_assert(victim >= 0);
    const auto vl = static_cast<std::uint8_t>(victim);
    const DirSnapshot pre = readEntry(s, node, vl);
    if (pre.gpmBits || pre.gpuBits || pre.nodeBits)
        applyDirEvent(table_, topo_, cfg_.hier, node, kInvalidGpm,
                      DirEvent::Replace, pre, hOf(vl), [&](GpmId tgt) {
                          send(s, node, tgt, Msg{MInv, vl, 0, 0});
                      });
    writeEntry(s, node, vl, false, 0, 0, 0);
}

bool
Explorer::relReady(const MState &s, int t, Scope sc) const
{
    // The release-drain fixpoint of Section V-C (see model.hh): the
    // thread's write-throughs have landed at the required level and no
    // relevant invalidation is still in flight.
    if (!cfg_.hier || sc >= Scope::Sys)
        return s.pendS[t] == 0 && s.pendG[t] == 0 && !anyInvInFlight(s);
    return s.pendG[t] == 0 &&
           !invFromGpuInFlight(s, topo_.gpuOf(progs_[t].gpm));
}

bool
Explorer::threadStep(const MState &s, int t, Succ &sc)
{
    const Program &prog = progs_[t];
    if (s.pc[t] >= prog.ops.size() || s.waiting[t])
        return false;
    const Op &op = prog.ops[s.pc[t]];
    const GpmId p = prog.gpm;
    const std::string who = "t" + std::to_string(t) + "@" + gpmName(p);
    sc.st = s;
    MState &out = sc.st;

    switch (op.k) {
      case OpK::Acq:
        out.pc[t]++;
        sc.label = who + ": acq." + toString(op.scope);
        return true;

      case OpK::Rel:
        if (!relReady(s, t, op.scope))
            return false;
        out.pc[t]++;
        sc.label = who + ": rel." + toString(op.scope) + " completes";
        return true;

      case OpK::St: {
        const std::uint8_t ver = ++out.nextVer;
        const std::uint8_t l = op.line;
        const GpmId h = hOf(l);
        const std::string what = ": st line" + std::to_string(l) +
                                 " := v" + std::to_string(ver);
        out.pc[t]++;
        if (p == h) {
            out.mem[l] = ver;
            applyAt(out, h, p, l, DirEvent::Store); // via == home: untracked
            sc.label = who + what + " (at sys home)";
            return true;
        }
        out.cache[p][l] = ver + 1;
        if (!cfg_.hier) {
            send(out, p, h, Msg{MWt, l, ver, std::uint8_t(p)});
            out.pendG[t]++;
            out.pendS[t]++;
            sc.label = who + what + " -> WT " + gpmName(h);
            return true;
        }
        const GpmId gh = ghOfLine(topo_.gpuOf(p), l);
        if (p == gh) {
            // Writer is its own GPU home: GPU level is reached in the
            // issuing event; only the upper hops remain (the node home
            // when one stands between gh and h, then the system home).
            const GpmId up = upFrom(gh, l);
            applyAt(out, gh, p, l, DirEvent::Store);
            send(out, gh, up, Msg{MWtF, l, ver, std::uint8_t(p)});
            out.pendS[t]++;
            sc.label = who + what + " (at gpu home) -> WTFwd " +
                       gpmName(up);
            return true;
        }
        send(out, p, gh, Msg{MWt, l, ver, std::uint8_t(p)});
        out.pendG[t]++;
        out.pendS[t]++;
        sc.label = who + what + " -> WT " + gpmName(gh);
        return true;
      }

      case OpK::Ld: {
        const std::uint8_t l = op.line;
        const GpmId h = hOf(l);
        const std::string what = ": ld line" + std::to_string(l);
        if (p == h) {
            out.reg[t][op.reg] = s.mem[l];
            out.pc[t]++;
            sc.label = who + what + " = v" + std::to_string(s.mem[l]) +
                       " (sys home)";
            return true;
        }
        const GpmId gh = cfg_.hier ? ghOfLine(topo_.gpuOf(p), l) : h;
        const bool atGh = cfg_.hier && p == gh && gh != h;
        const CacheRole role =
            atGh ? CacheRole::GpuHome : CacheRole::NonHome;
        if (loadMayHit(op.scope, role) && s.cache[p][l]) {
            out.reg[t][op.reg] = std::uint8_t(s.cache[p][l] - 1);
            out.pc[t]++;
            sc.label = who + what + " = v" +
                       std::to_string(s.cache[p][l] - 1) + " (local hit)";
            return true;
        }
        const GpmId dst = atGh ? upFrom(gh, l) : gh;
        send(out, p, dst,
             Msg{MReadReq, l, std::uint8_t(op.scope), std::uint8_t(p)});
        out.waiting[t] = 1;
        sc.label = who + what + " -> ReadReq " + gpmName(dst);
        return true;
      }
    }
    return false;
}

void
Explorer::resume(MState &s, GpmId gpm, std::uint8_t ver)
{
    const int t = thrAt_[gpm];
    hmg_assert(t >= 0 && s.waiting[t]);
    const Op &op = progs_[t].ops[s.pc[t]];
    hmg_assert(op.k == OpK::Ld);
    s.reg[t][op.reg] = ver;
    s.waiting[t] = 0;
    s.pc[t]++;
}

/**
 * Fill `p`'s cache with version `ver`, MSHR-merge style: a response
 * never downgrades a copy that a concurrent store has already made
 * newer (stored bytes win the merge in hardware; versions here are
 * globally monotonic, so "newer" is a plain comparison). Without this
 * a read miss forwarded from the GPU home races a store landing at
 * that GPU home, and the stale forwarded response would clobber the
 * fresher dirty copy — found by the explorer on mp_gpu.
 * @return the version `p` holds afterwards, which is what it relays
 */
static std::uint8_t
fillCache(MState &s, GpmId p, std::uint8_t l, std::uint8_t ver)
{
    if (s.cache[p][l] < ver + 1)
        s.cache[p][l] = std::uint8_t(ver + 1);
    return std::uint8_t(s.cache[p][l] - 1);
}

void
Explorer::deliver(MState &s, GpmId src, GpmId dst, const Msg &m)
{
    const std::uint8_t l = m.line;
    const GpmId h = hOf(l);
    switch (m.kind) {
      case MReadReq:
        if (cfg_.hier && dst != h) {
            // dst is the requester's GPU home (or, for a requester
            // that is its own GPU home, its node home); serve if the
            // scope may hit at an intermediate level, else consult the
            // next home up the chain (Section V-B).
            if (loadMayHit(static_cast<Scope>(m.ver),
                           CacheRole::GpuHome) &&
                s.cache[dst][l]) {
                applyAt(s, dst, m.a, l, DirEvent::LoadMiss);
                send(s, dst, m.a,
                     Msg{MResp, l, std::uint8_t(s.cache[dst][l] - 1),
                         m.a});
            } else {
                send(s, dst, upFrom(dst, l),
                     Msg{MReadReqF, l, m.ver, m.a});
            }
            break;
        }
        applyAt(s, h, m.a, l, DirEvent::LoadMiss);
        send(s, h, m.a, Msg{MResp, l, s.mem[l], m.a});
        break;

      case MReadReqF:
        if (cfg_.hier && dst != h) {
            // dst is the node home, src the forwarding GPU home: same
            // serve-or-forward decision one tier up.
            if (loadMayHit(static_cast<Scope>(m.ver),
                           CacheRole::GpuHome) &&
                s.cache[dst][l]) {
                applyAt(s, dst, src, l, DirEvent::LoadMiss);
                send(s, dst, src,
                     Msg{MRespF, l, std::uint8_t(s.cache[dst][l] - 1),
                         m.a});
            } else {
                send(s, dst, h, Msg{MReadReqF, l, m.ver, m.a});
            }
            break;
        }
        // src is the forwarding home (GPU or node home); only its
        // identity is recorded here (Section V-B, "Loads").
        applyAt(s, h, src, l, DirEvent::LoadMiss);
        send(s, h, src, Msg{MRespF, l, s.mem[l], m.a});
        break;

      // A filled tier relays the version it holds after the fill, as
      // HomeChainModel::probeLoad does: a store that reached it while
      // the response was in flight is newer than the response.
      case MResp:
        resume(s, dst, fillCache(s, dst, l, m.ver));
        break;

      case MRespF: {
        // The home fills from the response.
        const std::uint8_t held = fillCache(s, dst, l, m.ver);
        const GpmId gh = ghOfLine(topo_.gpuOf(m.a), l);
        if (cfg_.hier && dst != gh) {
            // dst is the node home on the downward path: record the
            // GPU home it serves and pass the response one tier down.
            applyAt(s, dst, gh, l, DirEvent::LoadMiss);
            send(s, dst, gh, Msg{MRespF, l, held, m.a});
            break;
        }
        if (m.a == dst) {
            resume(s, dst, held);
            break;
        }
        applyAt(s, dst, m.a, l, DirEvent::LoadMiss);
        send(s, dst, m.a, Msg{MResp, l, held, m.a});
        break;
      }

      case MWt: {
        const int t = thrAt_[m.a];
        hmg_assert(t >= 0);
        if (!cfg_.hier || dst == h) {
            s.mem[l] = m.ver;
            applyAt(s, h, m.a, l, DirEvent::Store);
            hmg_assert(s.pendG[t] && s.pendS[t]);
            s.pendG[t]--;
            s.pendS[t]--;
        } else {
            // dst is the writer's GPU home: fill, record, forward. The
            // GPU home serializes same-GPU writes in arrival order, so
            // unlike a response fill this assignment is unconditional
            // (mirrors Cache::store's `serialized` mode).
            s.cache[dst][l] = std::uint8_t(m.ver + 1);
            applyAt(s, dst, m.a, l, DirEvent::Store);
            hmg_assert(s.pendG[t]);
            s.pendG[t]--;
            send(s, dst, upFrom(dst, l), Msg{MWtF, l, m.ver, m.a});
        }
        break;
      }

      case MWtF: {
        const int t = thrAt_[m.a];
        hmg_assert(t >= 0);
        if (cfg_.hier && dst != h) {
            // dst is the node home: its FIFO inbound channels
            // serialize same-node write-throughs in arrival order, and
            // the order it forwards them to the system home is the
            // order they land there — so, as at the GPU home, the fill
            // is unconditional (core/home_chain.cc's storeAt).
            s.cache[dst][l] = std::uint8_t(m.ver + 1);
            applyAt(s, dst, src, l, DirEvent::Store); // via = GPU home
            send(s, dst, h, Msg{MWtF, l, m.ver, m.a});
            break;
        }
        s.mem[l] = m.ver;
        applyAt(s, h, src, l, DirEvent::Store); // via = forwarding home
        hmg_assert(s.pendS[t]);
        s.pendS[t]--;
        break;
      }

      case MInv:
        s.cache[dst][l] = 0;
        if (cfg_.hier && dst != h &&
            ghOfLine(topo_.gpuOf(dst), l) == dst)
            applyAt(s, dst, kInvalidGpm, l, DirEvent::InvRecv);
        break;
    }
}

void
Explorer::successors(const MState &s, std::vector<Succ> &out)
{
    for (std::size_t t = 0; t < progs_.size(); ++t) {
        Succ sc;
        pendingErr_.clear();
        if (threadStep(s, static_cast<int>(t), sc)) {
            sc.err = pendingErr_;
            out.push_back(std::move(sc));
        }
    }
    for (GpmId src = 0; src < numGpms_; ++src)
        for (GpmId dst = 0; dst < numGpms_; ++dst) {
            if (!s.chanN[src][dst])
                continue;
            Succ sc;
            sc.st = s;
            const Msg m = s.chanQ[src][dst][0];
            std::uint8_t &n = sc.st.chanN[src][dst];
            Msg *q = sc.st.chanQ[src][dst];
            std::memmove(q, q + 1, (n - 1) * sizeof(Msg));
            --n;
            std::memset(q + n, 0, sizeof(Msg));
            sc.label = gpmName(src) + " => " + gpmName(dst) + ": " +
                       kindName(m.kind) + " line" + std::to_string(m.line);
            if (m.kind == MResp || m.kind == MRespF || m.kind == MWt ||
                m.kind == MWtF)
                sc.label += " v" + std::to_string(m.ver);
            pendingErr_.clear();
            deliver(sc.st, src, dst, m);
            sc.err = pendingErr_;
            out.push_back(std::move(sc));
        }
}

bool
Explorer::allDone(const MState &s) const
{
    for (std::size_t t = 0; t < progs_.size(); ++t)
        if (s.pc[t] < progs_[t].ops.size())
            return false;
    return true;
}

bool
Explorer::invInFlight(const MState &s, std::uint8_t l) const
{
    for (GpmId a = 0; a < numGpms_; ++a)
        for (GpmId b = 0; b < numGpms_; ++b)
            for (std::uint8_t i = 0; i < s.chanN[a][b]; ++i)
                if (s.chanQ[a][b][i].kind == MInv &&
                    s.chanQ[a][b][i].line == l)
                    return true;
    return false;
}

bool
Explorer::anyInvInFlight(const MState &s) const
{
    for (GpmId a = 0; a < numGpms_; ++a)
        for (GpmId b = 0; b < numGpms_; ++b)
            for (std::uint8_t i = 0; i < s.chanN[a][b]; ++i)
                if (s.chanQ[a][b][i].kind == MInv)
                    return true;
    return false;
}

bool
Explorer::invFromGpuInFlight(const MState &s, GpuId g) const
{
    for (GpmId a = 0; a < numGpms_; ++a) {
        if (topo_.gpuOf(a) != g)
            continue;
        for (GpmId b = 0; b < numGpms_; ++b)
            for (std::uint8_t i = 0; i < s.chanN[a][b]; ++i)
                if (s.chanQ[a][b][i].kind == MInv)
                    return true;
    }
    return false;
}

bool
Explorer::wtInFlight(const MState &s, GpuId g, std::uint8_t l) const
{
    for (GpmId a = 0; a < numGpms_; ++a)
        for (GpmId b = 0; b < numGpms_; ++b)
            for (std::uint8_t i = 0; i < s.chanN[a][b]; ++i) {
                const Msg &m = s.chanQ[a][b][i];
                if ((m.kind != MWt && m.kind != MWtF) || m.line != l)
                    continue;
                if (topo_.gpuOf(m.a) == g)
                    return true;
            }
    return false;
}

bool
Explorer::wtFromNodeInFlight(const MState &s, NodeId n,
                             std::uint8_t l) const
{
    for (GpmId a = 0; a < numGpms_; ++a)
        for (GpmId b = 0; b < numGpms_; ++b)
            for (std::uint8_t i = 0; i < s.chanN[a][b]; ++i) {
                const Msg &m = s.chanQ[a][b][i];
                if ((m.kind != MWt && m.kind != MWtF) || m.line != l)
                    continue;
                if (topo_.nodeOf(topo_.gpuOf(m.a)) == n)
                    return true;
            }
    return false;
}

std::string
Explorer::coverageViolation(const MState &s) const
{
    for (GpmId p = 0; p < numGpms_; ++p)
        for (std::uint8_t l = 0; l < cfg_.numLines; ++l) {
            if (!s.cache[p][l])
                continue;
            const GpmId h = hOf(l);
            if (p == h)
                continue;
            // Transient exemptions, as core/checker.cc makes them: the
            // copy's invalidation or its write-through is in flight.
            if (invInFlight(s, l) || wtInFlight(s, topo_.gpuOf(p), l))
                continue;
            // Walk every link up to the system home: each next home
            // must hold the bit the walk records for the tier below.
            bool covered = true;
            for (GpmId from = p; covered && from != h;) {
                const GpmId up = upFrom(from, l);
                const NodeId n = topo_.nodeOfGpm(from);
                // The sys->node link is transiently excused while a
                // write-through from node n is in flight: the node home
                // fills from pass-through write-throughs (and may serve
                // descendants from that copy) before the forwarded
                // write-through lands at the system home and establishes
                // the node bit. The sub-node links are still required —
                // the copy must be reachable from the node home's own
                // directory.
                const DirSnapshot e = readEntry(s, up, l);
                covered = (e.present &&
                           tracksSharer(topo_, cfg_.hier, up, from,
                                        e.gpmBits, e.gpuBits,
                                        e.nodeBits)) ||
                          (up == h && n != topo_.nodeOfGpm(h) &&
                           wtFromNodeInFlight(s, n, l));
                from = up;
            }
            if (!covered)
                return "sharer-tracking violation: " + gpmName(p) +
                       " caches line" + std::to_string(l) + " (v" +
                       std::to_string(s.cache[p][l] - 1) +
                       ") but no home directory path reaches it and no "
                       "invalidation or write-through is in flight";
        }
    return {};
}

std::string
Explorer::forbiddenOutcome(const MState &s) const
{
    const std::uint8_t(*r)[kMaxRegs] = s.reg;
    auto sawNew = [](std::uint8_t v) { return v != kRegUnset && v != 0; };
    switch (cfg_.workload) {
      case Workload::Free:
        return {};
      case Workload::MpSys:
      case Workload::MpGpu:
      case Workload::MpGpuCross:
        if (sawNew(r[1][1]) && r[1][2] == 0)
            return "scoped-RC violation (MP): reader saw the flag (v" +
                   std::to_string(r[1][1]) +
                   ") but its post-acquire data load returned the "
                   "pre-release value v0";
        return {};
      case Workload::SbSys:
        if (r[0][0] == 0 && r[1][0] == 0)
            return "scoped-RC violation (SB): both post-release .sys "
                   "loads returned v0";
        return {};
      case Workload::WrcSys:
        if (sawNew(r[1][0]) && sawNew(r[2][1]) && r[2][2] == 0)
            return "scoped-RC violation (WRC): causality chain "
                   "flag1->flag2 observed but the final data load "
                   "returned the pre-release value v0";
        return {};
    }
    return {};
}

std::string
Explorer::checkState(const MState &s) const
{
    std::string v = coverageViolation(s);
    if (!v.empty())
        return v;
    if (allDone(s))
        return forbiddenOutcome(s);
    return {};
}

MckResult
Explorer::run()
{
    MState init{};
    std::memset(init.reg, kRegUnset, sizeof(init.reg));
    Search<MState> search(init);

    std::uint32_t idx;
    MState cur;
    std::vector<Succ> succs;
    while (search.next(idx, cur)) {
        succs.clear();
        successors(cur, succs);
        if (succs.empty()) {
            if (!allDone(cur))
                search.fail(idx, "deadlock: no transition enabled and "
                                 "threads are still running");
            else
                search.terminal();
            continue;
        }

        for (Succ &sc : succs) {
            // A state reached before is not checked again, so a step's
            // error is looked at only when its state is new.
            const std::uint32_t nidx =
                search.step(idx, sc.st, std::move(sc.label));
            if (nidx == Search<MState>::kSeen)
                continue;
            std::string v =
                sc.err.empty() ? checkState(sc.st) : std::move(sc.err);
            if (v.empty() && search.size() > kStateBound)
                v = "state-space bound exceeded (model growth bug?)";
            if (!v.empty()) {
                search.fail(nidx, std::move(v));
                break;
            }
        }
    }
    return search.result();
}

} // namespace

MckResult
exploreProtocol(const MckConfig &cfg)
{
    Explorer e(cfg);
    return e.run();
}

} // namespace hmg::verify

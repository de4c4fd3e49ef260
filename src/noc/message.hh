/**
 * @file
 * Message classification and sizing for the interconnect, and the slab
 * that holds message bodies while they cross it.
 *
 * Control messages (requests, invalidations, acks, release markers) are
 * small (16 B by default — the paper notes "The size of each invalidation
 * message is also relatively small compared to a GPU cache line",
 * Section VII-A). Data-bearing messages carry a full 128 B line plus a
 * header.
 */

#ifndef HMG_NOC_MESSAGE_HH
#define HMG_NOC_MESSAGE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"
#include "sim/engine.hh"

namespace hmg
{

/** All message classes exchanged between L2/directory nodes. */
enum class MsgType : std::uint8_t
{
    ReadReq,       //!< load request (control)
    ReadResp,      //!< load response (data)
    WriteThrough,  //!< store propagating toward home / DRAM (data)
    WriteAck,      //!< home's completion notice for a tracked write (ctrl)
    Inv,           //!< invalidation (control; covers one directory sector)
    AtomicReq,     //!< RMW request (data-sized payload, small)
    AtomicResp,    //!< RMW response (control + value)
    RelMarker,     //!< release marker fanned out to L2s (control)
    RelAck,        //!< release acknowledgment (control)
    Downgrade,     //!< optional sharer-prune notice on clean evict (ctrl)
    NumTypes
};

constexpr std::size_t kNumMsgTypes =
    static_cast<std::size_t>(MsgType::NumTypes);

const char *toString(MsgType t);

/** True for message classes that carry a full cache line of data. */
constexpr bool
carriesData(MsgType t)
{
    return t == MsgType::ReadResp || t == MsgType::WriteThrough;
}

/** Wire size of a message of type `t` under configuration `cfg`. */
std::uint32_t msgBytes(const SystemConfig &cfg, MsgType t);

/** Arrival continuation carried by a Message (move-only, inline). */
using MsgCallback = Engine::Callback;

/**
 * One typed transport-layer message. Producers construct it with
 * designated initializers and hand it to Network::inject(); the wire
 * size is derived from `type` by msgBytes(), so Fig. 9–11 byte
 * accounting and per-link occupancy always agree with one definition.
 *
 * The struct is move-only (the continuation is a SmallCallback) and is
 * moved once, into its LP's MessageSlab, at injection. The NIC and port
 * queues then carry a 16-byte MsgRef, and final delivery moves
 * `onArrival` from the slab straight into the engine's event wheel: on
 * any route the closure moves three times from its construction, with
 * no per-hop heap allocation and no per-hop closure copy. A message
 * crossing LPs moves once more, between slabs, at the window barrier.
 */
struct Message
{
    GpmId src = 0;
    GpmId dst = 0;
    MsgType type = MsgType::ReadReq;
    /** Line/sector address the message concerns (0 when n/a). */
    Addr addr = 0;
    /** Wire size; filled in by Network::inject() from `type`. */
    std::uint32_t bytes = 0;
    /** Runs at the delivery tick, after the last hop's latency. */
    MsgCallback onArrival;
};

/** Index of a Message body in a MessageSlab. */
using MsgHandle = std::uint32_t;

/**
 * What a transport queue holds for one message: its body's handle, its
 * wire size (so credit accounting never reads the body) and the tick it
 * becomes eligible at the stage holding it.
 */
struct MsgRef
{
    Tick ready = 0;
    MsgHandle handle = 0;
    std::uint32_t bytes = 0;
};

/**
 * Bodies of the messages in flight, addressed by handle. Bodies live in
 * fixed blocks that never move, so a handle stays valid from put() to
 * release(); freed slots are reused LIFO. Storage tracks the peak number
 * of messages in flight and is never allocated before the first put().
 * A slab belongs to one LP: only that LP's thread touches it during a
 * window (the barrier moves bodies between slabs).
 */
class MessageSlab
{
  public:
    /** Store `m`; the body is moved once. */
    MsgHandle
    put(Message &&m)
    {
        if (free_.empty())
            grow();
        const MsgHandle h = free_.back();
        free_.pop_back();
        at(h) = std::move(m);
        return h;
    }

    Message &
    at(MsgHandle h)
    {
        return blocks_[h >> kBlockBits][h & kBlockMask];
    }

    const Message &
    at(MsgHandle h) const
    {
        return blocks_[h >> kBlockBits][h & kBlockMask];
    }

    /** Free `h`'s slot; its callback has been moved out. */
    void release(MsgHandle h) { free_.push_back(h); }

  private:
    static constexpr unsigned kBlockBits = 7;
    static constexpr MsgHandle kBlockMask = (MsgHandle{1} << kBlockBits) - 1;

    void grow();

    std::vector<std::unique_ptr<Message[]>> blocks_;
    std::vector<MsgHandle> free_;
};

} // namespace hmg

#endif // HMG_NOC_MESSAGE_HH

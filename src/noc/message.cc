#include "noc/message.hh"

namespace hmg
{

const char *
toString(MsgType t)
{
    switch (t) {
      case MsgType::ReadReq:      return "read_req";
      case MsgType::ReadResp:     return "read_resp";
      case MsgType::WriteThrough: return "write_through";
      case MsgType::WriteAck:     return "write_ack";
      case MsgType::Inv:          return "inv";
      case MsgType::AtomicReq:    return "atomic_req";
      case MsgType::AtomicResp:   return "atomic_resp";
      case MsgType::RelMarker:    return "rel_marker";
      case MsgType::RelAck:       return "rel_ack";
      case MsgType::Downgrade:    return "downgrade";
      case MsgType::NumTypes:     break;
    }
    return "?";
}

std::uint32_t
msgBytes(const SystemConfig &cfg, MsgType t)
{
    switch (t) {
      case MsgType::ReadResp:
      case MsgType::WriteThrough:
        return cfg.msgHeaderBytes + cfg.cacheLineBytes;
      case MsgType::AtomicReq:
      case MsgType::AtomicResp:
        // RMWs move an operand/result word, not a line.
        return cfg.ctrlMsgBytes + 8;
      default:
        return cfg.ctrlMsgBytes;
    }
}

void
MessageSlab::grow()
{
    const auto base = static_cast<MsgHandle>(blocks_.size() << kBlockBits);
    blocks_.push_back(std::make_unique<Message[]>(MsgHandle{1} << kBlockBits));
    // Pushed in reverse so the block's slots are handed out in order.
    for (MsgHandle i = kBlockMask + 1; i-- > 0;)
        free_.push_back(base + i);
}

} // namespace hmg

#include "cmp/l1_cache.hpp"

#include "common/log.hpp"

namespace flov {

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kGetS: return "GetS";
    case MsgType::kGetM: return "GetM";
    case MsgType::kPutM: return "PutM";
    case MsgType::kPutE: return "PutE";
    case MsgType::kPutS: return "PutS";
    case MsgType::kFwdGetS: return "FwdGetS";
    case MsgType::kFwdGetM: return "FwdGetM";
    case MsgType::kInv: return "Inv";
    case MsgType::kData: return "Data";
    case MsgType::kDataToDir: return "DataToDir";
    case MsgType::kInvAck: return "InvAck";
    case MsgType::kPutAck: return "PutAck";
  }
  return "?";
}

L1Cache::L1Cache(NodeId tile, int capacity_blocks, std::uint64_t seed,
                 SendFn send, HomeFn home_of)
    : tile_(tile), capacity_(capacity_blocks), rng_(seed),
      send_(std::move(send)), home_of_(std::move(home_of)) {
  FLOV_CHECK(capacity_ > 0, "L1 capacity must be positive");
}

bool L1Cache::access(Addr addr, bool is_store) {
  FLOV_CHECK(!mshr_.has_value(), "access while miss outstanding");
  FLOV_CHECK(!flushing_, "access while flushing");
  auto it = blocks_.find(addr);
  if (it != blocks_.end()) {
    if (!is_store || it->second != L1State::kS) {
      // Loads hit in any state; stores hit in M, and in E with a silent
      // E -> M upgrade (the MESI payoff: no GetM for private data).
      if (is_store) it->second = L1State::kM;
      ++hits_;
      return true;
    }
    // S -> M upgrade: treated as a GetM miss (directory invalidates the
    // other sharers and returns M). Drop our S copy; data comes back.
    blocks_.erase(it);
  }
  ++misses_;
  mshr_ = Mshr{addr, is_store};
  CoherenceMsg m;
  m.type = is_store ? MsgType::kGetM : MsgType::kGetS;
  m.addr = addr;
  m.src = tile_;
  m.dst = home_of_(addr);
  m.requester = tile_;
  send_(m);
  return false;
}

void L1Cache::evict(Addr addr, L1State st) {
  CoherenceMsg m;
  m.addr = addr;
  m.src = tile_;
  m.dst = home_of_(addr);
  m.requester = tile_;
  if (st == L1State::kM) {
    m.type = MsgType::kPutM;  // dirty data travels back
    wb_pending_.insert(addr);
  } else if (st == L1State::kE) {
    // Clean-exclusive eviction: control-only, but acked and held in the
    // writeback-pending set so a racing Fwd can still be served.
    m.type = MsgType::kPutE;
    wb_pending_.insert(addr);
  } else {
    m.type = MsgType::kPutS;
  }
  send_(m);
}

void L1Cache::evict_one() {
  // Pseudo-random victim: advance a rolling index into the hash map.
  FLOV_CHECK(!blocks_.empty(), "evict from empty cache");
  auto it = blocks_.begin();
  std::advance(it, static_cast<long>(rng_.next_below(blocks_.size())));
  const Addr victim = it->first;
  const L1State st = it->second;
  blocks_.erase(it);
  evict(victim, st);
}

void L1Cache::on_message(const CoherenceMsg& msg) {
  switch (msg.type) {
    case MsgType::kData: {
      FLOV_CHECK(mshr_.has_value() && mshr_->addr == msg.addr,
                 "Data without matching MSHR");
      if (static_cast<int>(blocks_.size()) >= capacity_) evict_one();
      switch (msg.grant) {
        case Grant::kS: blocks_[msg.addr] = L1State::kS; break;
        case Grant::kE: blocks_[msg.addr] = L1State::kE; break;
        case Grant::kM: blocks_[msg.addr] = L1State::kM; break;
      }
      mshr_.reset();
      break;
    }
    case MsgType::kFwdGetS: {
      // We own the block (or its writeback is in flight): supply data to
      // the requester and the directory, downgrade to S.
      CoherenceMsg d;
      d.type = MsgType::kData;
      d.addr = msg.addr;
      d.src = tile_;
      d.dst = msg.requester;
      d.requester = msg.requester;
      d.grant = Grant::kS;
      send_(d);
      CoherenceMsg wb;
      wb.type = MsgType::kDataToDir;
      wb.addr = msg.addr;
      wb.src = tile_;
      wb.dst = msg.src;
      send_(wb);
      auto it = blocks_.find(msg.addr);
      if (it != blocks_.end()) it->second = L1State::kS;
      break;
    }
    case MsgType::kFwdGetM: {
      CoherenceMsg wb;
      wb.type = MsgType::kDataToDir;
      wb.addr = msg.addr;
      wb.src = tile_;
      wb.dst = msg.src;
      send_(wb);
      blocks_.erase(msg.addr);
      break;
    }
    case MsgType::kInv: {
      blocks_.erase(msg.addr);
      CoherenceMsg ack;
      ack.type = MsgType::kInvAck;
      ack.addr = msg.addr;
      ack.src = tile_;
      ack.dst = msg.src;
      send_(ack);
      break;
    }
    case MsgType::kPutAck:
      wb_pending_.erase(msg.addr);
      break;
    default:
      FLOV_CHECK(false, "unexpected message at L1");
  }
}

void L1Cache::begin_flush() {
  FLOV_CHECK(!flushing_, "double flush");
  flushing_ = true;
  flush_queue_.reserve(blocks_.size());
  for (const auto& [a, _] : blocks_) flush_queue_.push_back(a);
}

void L1Cache::flush_step() {
  if (flush_queue_.empty()) return;
  const Addr a = flush_queue_.back();
  flush_queue_.pop_back();
  auto it = blocks_.find(a);
  if (it == blocks_.end()) return;  // already invalidated by the protocol
  const L1State st = it->second;
  blocks_.erase(it);
  evict(a, st);
}

}  // namespace flov

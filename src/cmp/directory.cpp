#include "cmp/directory.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace flov {

DirectoryBank::DirectoryBank(NodeId tile, DirectoryConfig cfg, SendFn send)
    : tile_(tile), cfg_(cfg), send_(std::move(send)) {}

void DirectoryBank::send(MsgType t, Addr a, NodeId dst, NodeId requester,
                         Grant grant) {
  CoherenceMsg m;
  m.type = t;
  m.addr = a;
  m.src = tile_;
  m.dst = dst;
  m.requester = requester;
  m.grant = grant;
  send_(m);
}

void DirectoryBank::touch_l2(Addr addr) {
  if (l2_.insert(addr).second) {
    l2_fifo_.push_back(addr);
    while (static_cast<int>(l2_.size()) > cfg_.l2_capacity_blocks) {
      const Addr victim = l2_fifo_.front();
      l2_fifo_.pop_front();
      l2_.erase(victim);  // dirty victims write to local DRAM, no NoC traffic
    }
  }
}

Cycle DirectoryBank::fetch_latency(Addr addr, Cycle now) {
  if (l2_.count(addr)) return now + cfg_.l2_latency;
  ++l2_misses_;
  touch_l2(addr);
  return now + cfg_.l2_latency + cfg_.dram_latency;
}

void DirectoryBank::start_transaction(Entry& e, const CoherenceMsg& msg,
                                      Cycle now) {
  e.busy = true;
  e.pending_type = msg.type;
  e.pending_requester = msg.requester;
  e.acks_needed = 0;
  e.waiting_memory = false;
  e.waiting_owner = false;

  switch (e.state) {
    case DirState::kI:
      e.waiting_memory = true;
      e.data_ready_at = fetch_latency(msg.addr, now);
      break;
    case DirState::kS:
      if (msg.type == MsgType::kGetS) {
        e.waiting_memory = true;
        e.data_ready_at = fetch_latency(msg.addr, now);
      } else {  // GetM over sharers: invalidate everyone else, then data
        for (NodeId s : e.sharers) {
          if (s == msg.requester) continue;
          if (gated_ && gated_(s)) continue;  // flushed core: no copy left
          send(MsgType::kInv, msg.addr, s, msg.requester, Grant::kS);
          ++e.acks_needed;
        }
        e.waiting_memory = true;
        e.data_ready_at = fetch_latency(msg.addr, now);
      }
      break;
    case DirState::kM:
      FLOV_CHECK(!(gated_ && gated_(e.owner)),
                 "directory owner is a gated core (flush must precede gate)");
      e.waiting_owner = true;
      send(msg.type == MsgType::kGetS ? MsgType::kFwdGetS : MsgType::kFwdGetM,
           msg.addr, e.owner, msg.requester, Grant::kS);
      break;
  }
  busy_blocks_.push_back(msg.addr);
}

void DirectoryBank::finish_transaction(Addr addr, Entry& e, Cycle now) {
  e.busy = false;
  ++transactions_;
  busy_blocks_.erase(
      std::remove(busy_blocks_.begin(), busy_blocks_.end(), addr),
      busy_blocks_.end());
  pump(addr, now);
}

void DirectoryBank::pump(Addr addr, Cycle now) {
  // Drain queued requests while the entry stays non-busy. Re-resolve the
  // entry each round: handle() may mutate the map indirectly.
  while (true) {
    Entry& e = dir_[addr];
    if (e.busy) return;
    const auto q = waiting_.find(addr);
    if (q == waiting_.end()) return;
    const CoherenceMsg next = q->second.front();
    q->second.pop_front();
    if (q->second.empty()) waiting_.erase(q);
    handle(e, next, now);
  }
}

void DirectoryBank::process(const CoherenceMsg& msg, Cycle now) {
  Entry& e = dir_[msg.addr];
  const bool is_request =
      msg.type == MsgType::kGetS || msg.type == MsgType::kGetM ||
      msg.type == MsgType::kPutM || msg.type == MsgType::kPutE ||
      msg.type == MsgType::kPutS;
  // Requests serialize per block: behind a live transaction AND behind any
  // already-waiting requests (FIFO).
  if (is_request && (e.busy || waiting_.count(msg.addr))) {
    waiting_[msg.addr].push_back(msg);
    return;
  }
  handle(e, msg, now);
  pump(msg.addr, now);
}

void DirectoryBank::handle(Entry& e, const CoherenceMsg& msg, Cycle now) {
  switch (msg.type) {
    case MsgType::kGetS:
    case MsgType::kGetM:
      start_transaction(e, msg, now);
      return;

    case MsgType::kPutM:
    case MsgType::kPutE:
      if (e.state == DirState::kM && e.owner == msg.src) {
        e.state = DirState::kI;
        e.owner = kInvalidNode;
        touch_l2(msg.addr);  // PutE data is clean; the L2 copy is current
      }
      // Stale PutM/PutE (ownership already moved on): ack, drop payload.
      send(MsgType::kPutAck, msg.addr, msg.src, msg.src, Grant::kS);
      return;

    case MsgType::kPutS:
      e.sharers.erase(msg.src);
      if (e.state == DirState::kS && e.sharers.empty()) {
        e.state = DirState::kI;
      }
      return;

    case MsgType::kDataToDir: {
      FLOV_CHECK(e.busy && e.waiting_owner, "DataToDir without transaction");
      touch_l2(msg.addr);
      const NodeId old_owner = e.owner;
      if (e.pending_type == MsgType::kGetS) {
        // Owner already supplied data to the requester directly.
        e.state = DirState::kS;
        e.owner = kInvalidNode;
        e.sharers.clear();
        e.sharers.insert(old_owner);
        e.sharers.insert(e.pending_requester);
      } else {
        send(MsgType::kData, msg.addr, e.pending_requester,
             e.pending_requester, Grant::kM);
        e.state = DirState::kM;
        e.owner = e.pending_requester;
        e.sharers.clear();
      }
      finish_transaction(msg.addr, e, now);
      return;
    }

    case MsgType::kInvAck:
      FLOV_CHECK(e.busy && e.acks_needed > 0, "unexpected InvAck");
      --e.acks_needed;
      return;  // completion is polled in step()

    default:
      FLOV_CHECK(false, "unexpected message at directory");
  }
}

void DirectoryBank::step(Cycle now) {
  // Timer / ack completions for memory-waiting transactions.
  for (std::size_t i = 0; i < busy_blocks_.size(); ++i) {
    const Addr a = busy_blocks_[i];
    Entry& e = dir_[a];
    if (!e.busy || !e.waiting_memory) continue;
    if (e.acks_needed > 0 || now < e.data_ready_at) continue;
    Grant grant;
    if (e.pending_type == MsgType::kGetM) {
      grant = Grant::kM;
    } else if (e.state == DirState::kI) {
      grant = Grant::kE;  // MESI: sole reader gets Exclusive
    } else {
      grant = Grant::kS;
    }
    send(MsgType::kData, a, e.pending_requester, e.pending_requester, grant);
    if (grant == Grant::kS) {
      e.state = DirState::kS;
      e.sharers.insert(e.pending_requester);
    } else {
      // M and E grants both track a single owner (an E owner may upgrade
      // to M silently, so the directory must forward either way).
      e.state = DirState::kM;
      e.owner = e.pending_requester;
      e.sharers.clear();
    }
    e.waiting_memory = false;
    finish_transaction(a, e, now);
    // finish_transaction may mutate busy_blocks_; restart the scan.
    i = static_cast<std::size_t>(-1);
  }

  // One incoming message per cycle (bank bandwidth).
  if (!incoming_.empty()) {
    const CoherenceMsg m = incoming_.front();
    incoming_.pop_front();
    process(m, now);
  }
}

bool DirectoryBank::idle() const {
  // Every queued request sits behind a busy block.
  FLOV_DCHECK(!busy_blocks_.empty() || waiting_.empty(),
              "directory queues a request while no block is busy");
  if (!incoming_.empty()) return false;
  return busy_blocks_.empty();
}

}  // namespace flov

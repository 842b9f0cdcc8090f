#include "traced_protocol.hpp"

namespace perfbench {

CallCounts& CallCounts::operator+=(const CallCounts& o) noexcept {
  full += o.full;
  payload += o.payload;
  delta += o.delta;
  unchanged += o.unchanged;
  declined_payload += o.declined_payload;
  declined_delta += o.declined_delta;
  declined_unchanged += o.declined_unchanged;
  digests += o.digests;
  frames += o.frames;
  ticks += o.ticks;
  return *this;
}

CallCounts CallCounts::operator-(const CallCounts& o) const noexcept {
  CallCounts d = *this;
  d.full -= o.full;
  d.payload -= o.payload;
  d.delta -= o.delta;
  d.unchanged -= o.unchanged;
  d.declined_payload -= o.declined_payload;
  d.declined_delta -= o.declined_delta;
  d.declined_unchanged -= o.declined_unchanged;
  d.digests -= o.digests;
  d.frames -= o.frames;
  d.ticks -= o.ticks;
  return d;
}

Tracer::Tracer(const graph::Graph& g, std::span<const std::size_t> bounds)
    : graph_(&g), bounds_(bounds.begin(), bounds.end()), slots_(kMaxSlots) {
  const std::size_t shards = bounds_.size() - 1;
  last_listener_.assign(shards, ~graph::NodeId{0});
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t p = bounds_[s + 1]; p > bounds_[s]; --p) {
      if (g.degree(static_cast<graph::NodeId>(p - 1)) > 0) {
        last_listener_[s] = static_cast<graph::NodeId>(p - 1);
        break;
      }
    }
  }
}

CallCounts Tracer::counts() const {
  CallCounts total;
  for (const Slot& s : slots_) total += s.counts;
  return total;
}

std::vector<std::array<double, kKinds>> Tracer::busy() const {
  std::vector<std::array<double, kKinds>> out;
  out.reserve(slots_.size());
  for (const Slot& s : slots_) out.push_back(s.busy_s);
  return out;
}

}  // namespace perfbench

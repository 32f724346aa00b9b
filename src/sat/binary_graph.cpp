#include "sat/binary_graph.hpp"

#include <algorithm>
#include <cassert>

namespace stps::sat {

void binary_graph::add(lit a, lit b, bool learnt)
{
  assert(a.variable() != b.variable());
  const uint32_t flag = learnt ? 1u : 0u;
  ensure_num_vars(std::max(a.variable(), b.variable()) + 1u);
  implications_[(~a).x].push_back(edge{b, flag});
  implications_[(~b).x].push_back(edge{a, flag});
  ++lifetime_added_;
  if (learnt) {
    ++live_learnt_;
  } else {
    ++live_problem_;
  }
}

bool binary_graph::remove(lit a, lit b, bool learnt)
{
  if ((~a).x >= implications_.size() || (~b).x >= implications_.size()) {
    return false;
  }
  const uint32_t flag = learnt ? 1u : 0u;
  auto erase_edge = [this, flag](lit source, lit implied) {
    auto& list = implications_[source.x];
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i].other == implied && list[i].learnt == flag) {
        list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  };
  if (!erase_edge(~a, b)) {
    return false;
  }
  const bool mirrored = erase_edge(~b, a);
  assert(mirrored);
  (void)mirrored;
  if (learnt) {
    --live_learnt_;
  } else {
    --live_problem_;
  }
  return true;
}

} // namespace stps::sat

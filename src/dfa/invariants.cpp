#include "dfa/invariants.hpp"

namespace la1::dfa {

const char* to_string(Invariant::Kind k) {
  switch (k) {
    case Invariant::Kind::kConst: return "const";
    case Invariant::Kind::kEqual: return "equal";
    case Invariant::Kind::kComplement: return "complement";
  }
  return "?";
}

int InvariantSet::count(Invariant::Kind k) const {
  int n = 0;
  for (const Invariant& inv : invariants_) {
    if (inv.kind == k) ++n;
  }
  return n;
}

util::Json InvariantSet::to_json() const {
  util::Json arr = util::Json::array();
  for (const Invariant& inv : invariants_) {
    util::Json item = util::Json::object();
    item.set("kind", to_string(inv.kind));
    item.set("a", inv.a);
    if (inv.kind == Invariant::Kind::kConst) {
      item.set("value", inv.value);
    } else {
      item.set("b", inv.b);
    }
    arr.push(std::move(item));
  }
  util::Json j = util::Json::object();
  j.set("invariants", std::move(arr));
  return j;
}

}  // namespace la1::dfa

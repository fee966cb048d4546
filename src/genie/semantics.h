// The taxonomy of data-passing semantics (paper Section 2, Figure 1):
// three dimensions — buffer allocation scheme, guaranteed integrity, and
// level of optimization — giving four basic semantics and their emulated
// (transparently optimized) counterparts.
#ifndef GENIE_SRC_GENIE_SEMANTICS_H_
#define GENIE_SRC_GENIE_SEMANTICS_H_

#include <array>
#include <cstdint>
#include <string_view>

namespace genie {

enum class Semantics : std::uint8_t {
  kCopy,              // application-allocated, strong integrity, basic
  kEmulatedCopy,      // application-allocated, strong integrity, optimized
  kShare,             // application-allocated, weak integrity, basic
  kEmulatedShare,     // application-allocated, weak integrity, optimized
  kMove,              // system-allocated, strong integrity, basic
  kEmulatedMove,      // system-allocated, strong integrity, optimized
  kWeakMove,          // system-allocated, weak integrity, basic
  kEmulatedWeakMove,  // system-allocated, weak integrity, optimized
};

inline constexpr std::array<Semantics, 8> kAllSemantics = {
    Semantics::kCopy,      Semantics::kEmulatedCopy, Semantics::kShare,
    Semantics::kEmulatedShare, Semantics::kMove,     Semantics::kEmulatedMove,
    Semantics::kWeakMove,  Semantics::kEmulatedWeakMove,
};

// Dimension 1 (Section 2.1): who chooses buffer locations. System-allocated
// semantics return input buffer locations to the application and deallocate
// output buffers on output.
constexpr bool IsSystemAllocated(Semantics s) {
  return s == Semantics::kMove || s == Semantics::kEmulatedMove ||
         s == Semantics::kWeakMove || s == Semantics::kEmulatedWeakMove;
}
constexpr bool IsApplicationAllocated(Semantics s) { return !IsSystemAllocated(s); }

// Dimension 2 (Section 2.2): strong integrity guarantees output data is
// unaffected by later overwrites and input buffers are never observable in
// incomplete states; weak integrity performs I/O in place and makes no such
// guarantee.
constexpr bool IsWeakIntegrity(Semantics s) {
  return s == Semantics::kShare || s == Semantics::kEmulatedShare ||
         s == Semantics::kWeakMove || s == Semantics::kEmulatedWeakMove;
}
constexpr bool IsStrongIntegrity(Semantics s) { return !IsWeakIntegrity(s); }

// Dimension 3 (Section 2.3): emulated semantics are transparently optimized —
// compatible behavior, normally better performance.
constexpr bool IsEmulated(Semantics s) {
  return s == Semantics::kEmulatedCopy || s == Semantics::kEmulatedShare ||
         s == Semantics::kEmulatedMove || s == Semantics::kEmulatedWeakMove;
}

// The basic semantics an emulated one optimizes (identity for basic ones).
constexpr Semantics BasicOf(Semantics s) {
  switch (s) {
    case Semantics::kEmulatedCopy:
      return Semantics::kCopy;
    case Semantics::kEmulatedShare:
      return Semantics::kShare;
    case Semantics::kEmulatedMove:
      return Semantics::kMove;
    case Semantics::kEmulatedWeakMove:
      return Semantics::kWeakMove;
    default:
      return s;
  }
}

// Header-only so the trace layer can format transfer labels without linking
// the endpoint library.
constexpr std::string_view SemanticsName(Semantics s) {
  switch (s) {
    case Semantics::kCopy:
      return "copy";
    case Semantics::kEmulatedCopy:
      return "emulated copy";
    case Semantics::kShare:
      return "share";
    case Semantics::kEmulatedShare:
      return "emulated share";
    case Semantics::kMove:
      return "move";
    case Semantics::kEmulatedMove:
      return "emulated move";
    case Semantics::kWeakMove:
      return "weak move";
    case Semantics::kEmulatedWeakMove:
      return "emulated weak move";
  }
  return "?";
}

}  // namespace genie

#endif  // GENIE_SRC_GENIE_SEMANTICS_H_

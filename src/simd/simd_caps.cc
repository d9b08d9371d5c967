#include "simd/simd_caps.h"

#include <cstdlib>

#include "simd/kernels.h"

namespace cqc {
namespace simd {

namespace detail {
// Defined in kernels.cc: one table per level compiled into every binary.
const KernelTable* TableFor(Level level);
extern const KernelTable* g_active;
}  // namespace detail

namespace {

Level DetectImpl() {
  const char* force = std::getenv("CQC_FORCE_SCALAR");
  if (force != nullptr && force[0] == '1' && force[1] == '\0') {
    return Level::kScalar;
  }
#if defined(__aarch64__)
  // NEON is baseline on aarch64.
  return Level::kNEON;
#elif defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") ? Level::kAVX2 : Level::kScalar;
#else
  return Level::kScalar;
#endif
}

Level g_active_level = [] {
  Level detected = DetectImpl();
  detail::g_active = detail::TableFor(detected);
  return detected;
}();

}  // namespace

Level Detected() {
  static const Level detected = DetectImpl();
  return detected;
}

Level Active() { return g_active_level; }

Level SetLevel(Level level) {
  // Clamp to what the CPU can run: the scalar twins or the detected vector
  // level. An off-architecture request (e.g. kNEON on x86) also falls back
  // to the detected level rather than crashing on illegal instructions.
  if (level != Level::kScalar) level = Detected();
  detail::g_active = detail::TableFor(level);
  g_active_level = level;
  return level;
}

std::vector<Level> SupportedLevels() {
  std::vector<Level> levels = {Level::kScalar};
  if (Detected() != Level::kScalar) levels.push_back(Detected());
  return levels;
}

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAVX2: return "avx2";
    case Level::kNEON: return "neon";
  }
  return "?";
}

}  // namespace simd
}  // namespace cqc

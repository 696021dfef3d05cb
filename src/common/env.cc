#include "src/common/env.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "src/common/check.h"

namespace nyx {
namespace env {

namespace {

const char* Raw(const char* name) {
  // The only getenv call site in the tree (nyx_lint `raw-env`).
  return std::getenv(name);
}

bool IsDigit(char c) { return isdigit(static_cast<unsigned char>(c)) != 0; }

}  // namespace

bool Flag(const char* name) {
  const char* v = Raw(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

bool FlagOr(const char* name, bool def) {
  const char* v = Raw(name);
  if (v == nullptr || v[0] == '\0') {
    return def;
  }
  return v[0] != '0';
}

size_t SizeOr(const char* name, size_t def) {
  const char* v = Raw(name);
  if (v == nullptr || v[0] == '\0') {
    return def;
  }
  // strtoull alone would accept leading blanks and signs ("-3" wraps).
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = IsDigit(v[0]) ? strtoull(v, &end, 10) : 0;
  NYX_CHECK(n > 0 && errno == 0 && *end == '\0')
      << name << "=\"" << v << "\" is not a positive integer";
  return static_cast<size_t>(n);
}

double DoubleOr(const char* name, double def) {
  const char* v = Raw(name);
  if (v == nullptr || v[0] == '\0') {
    return def;
  }
  // A leading digit or dot also rules out blanks, signs, "inf" and "nan".
  char* end = nullptr;
  errno = 0;
  const double x = IsDigit(v[0]) || v[0] == '.' ? strtod(v, &end) : 0;
  NYX_CHECK(x > 0 && errno == 0 && *end == '\0')
      << name << "=\"" << v << "\" is not a positive number";
  return x;
}

std::string StringOr(const char* name, const std::string& def) {
  const char* v = Raw(name);
  return (v == nullptr || v[0] == '\0') ? def : std::string(v);
}

size_t Runs(size_t def) { return SizeOr("NYX_RUNS", def); }
double Vtime(double def) { return DoubleOr("NYX_VTIME", def); }
size_t Jobs(size_t def) { return SizeOr("NYX_JOBS", def); }
double Wall(double def) { return DoubleOr("NYX_WALL", def); }
bool LockDebug(bool def) { return FlagOr("NYX_LOCK_DEBUG", def); }
bool Audit() { return Flag("NYX_AUDIT"); }
std::string TracePath() { return StringOr("NYX_TRACE", ""); }
size_t DirtyRing(size_t def) { return SizeOr("NYX_DIRTY_RING", def); }
size_t SnapshotDepth(size_t def) { return SizeOr("NYX_SNAPSHOT_DEPTH", def); }
bool AnalyzeCheck() { return Flag("NYX_ANALYZE_CHECK"); }

}  // namespace env
}  // namespace nyx

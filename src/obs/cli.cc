#include "obs/cli.h"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace lamp::obs {

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

const char* LoadGlyph(std::uint64_t load, std::uint64_t max) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (load == 0) return ".";
  if (max == 0) return kBlocks[0];
  const auto idx = static_cast<std::size_t>((8 * load - 1) / max);
  return kBlocks[std::min<std::size_t>(idx, 7)];
}

}  // namespace lamp::obs

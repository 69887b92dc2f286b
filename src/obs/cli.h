#ifndef LAMP_OBS_CLI_H_
#define LAMP_OBS_CLI_H_

#include <cstdint>
#include <optional>
#include <string>

/// \file
/// Small helpers shared by the command-line tools (tools/): whole-file
/// reads and the block-glyph scale their load heatmaps are drawn with.

namespace lamp::obs {

/// The whole content of \p path, read as bytes; nullopt when the file
/// cannot be opened. Callers report the error in their own voice.
std::optional<std::string> ReadFile(const std::string& path);

/// One heatmap cell: \p load on a scale whose top is \p max, as one of
/// eight block glyphs ("▁".."█"). Zero renders as "." so empty cells
/// stay visible.
const char* LoadGlyph(std::uint64_t load, std::uint64_t max);

}  // namespace lamp::obs

#endif  // LAMP_OBS_CLI_H_

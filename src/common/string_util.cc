#include "common/string_util.h"

#include <algorithm>
#include <cstdio>

namespace mamdr {

std::string FormatFloat(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return std::string(buf);
}

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string PadRight(const std::string& s, size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

std::string RenderTable(const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows) {
  std::vector<size_t> widths(header.size(), 0);
  for (size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      out += (c == 0 ? "| " : " | ");
      out += PadRight(cell, widths[c]);
    }
    out += " |\n";
  };
  emit_row(header);
  for (size_t c = 0; c < widths.size(); ++c) {
    out += (c == 0 ? "|-" : "-|-");
    out += std::string(widths[c], '-');
  }
  out += "-|\n";
  for (const auto& row : rows) emit_row(row);
  return out;
}

}  // namespace mamdr

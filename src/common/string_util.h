// Small string/formatting helpers shared by benches and reports.
#ifndef MAMDR_COMMON_STRING_UTIL_H_
#define MAMDR_COMMON_STRING_UTIL_H_

#include <string>
#include <vector>

namespace mamdr {

/// Format a double with fixed precision (default 4, like AUC tables).
std::string FormatFloat(double v, int precision = 4);

/// Join strings with a separator.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Right-pad to a fixed width (for ASCII tables).
std::string PadRight(const std::string& s, size_t width);

/// Render an ASCII table: header row + data rows, columns auto-sized.
std::string RenderTable(const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows);

}  // namespace mamdr

#endif  // MAMDR_COMMON_STRING_UTIL_H_

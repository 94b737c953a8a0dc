#include "support/table.hpp"

#include <algorithm>
#include <ostream>

#include "support/check.hpp"

namespace sdlo {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  SDLO_EXPECTS(!header_.empty());
}

void TextTable::add_row(std::vector<std::string> cells) {
  SDLO_EXPECTS(cells.size() == header_.size());
  rows_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    width[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto emit = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::size_t pad = width[c] - row[c].size();
      os << ' ';
      if (c != 0) os << std::string(pad, ' ');
      os << row[c];
      if (c == 0) os << std::string(pad, ' ');
      os << " |";
    }
    os << "\n";
  };
  emit(header_);
  os << "|";
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << std::string(width[c] + 2, '-') << "|";
  }
  os << "\n";
  for (const auto& row : rows_) emit(row);
}

void TextTable::print_csv(std::ostream& os) const {
  // RFC 4180: a cell holding a comma, a quote or a line break is quoted,
  // with each embedded quote doubled.
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) os << ",";
      const std::string& cell = row[c];
      if (cell.find_first_of(",\"\r\n") == std::string::npos) {
        os << cell;
        continue;
      }
      os << '"';
      for (const char ch : cell) {
        if (ch == '"') os << '"';
        os << ch;
      }
      os << '"';
    }
    os << "\n";
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

}  // namespace sdlo

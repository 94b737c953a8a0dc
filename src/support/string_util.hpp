// Small string helpers shared by the IR/tensor-expression parsers and the
// table printers. Kept deliberately minimal: no locale dependence, ASCII only.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sdlo {

/// Strip leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Split on a delimiter character; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Split on a delimiter and trim each piece; empty pieces are dropped.
std::vector<std::string> split_trimmed(std::string_view s, char delim);

/// True iff `s` is a non-empty ASCII decimal integer (optional leading '-').
bool is_integer(std::string_view s);

/// Parse a decimal integer; throws ParseError on malformed input.
std::int64_t parse_int(std::string_view s);

/// True iff `s` is a valid identifier: [A-Za-z_][A-Za-z0-9_]*.
bool is_identifier(std::string_view s);

/// Group digits with commas for human-readable counts: 1234567 -> "1,234,567".
std::string with_commas(std::int64_t v);

/// Fixed-precision double formatting without locale surprises.
std::string format_double(double v, int precision);

/// True iff `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included). Control characters become \n, \r, \t or \u00XX, so the
/// result never holds a raw newline. Every JSON emitter shares this one.
std::string json_escape(std::string_view s);

}  // namespace sdlo

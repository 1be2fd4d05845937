// Typed values for MiniRDB.
//
// SQL's three-valued logic is modelled explicitly: a Value is NULL, an
// INTEGER (int64), a REAL (double) or TEXT.  Comparisons involving NULL
// yield "unknown", which callers treat as false in WHERE contexts — the
// same convention real engines use.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

namespace xr::rdb {

enum class ValueType { kNull, kInteger, kReal, kText };

[[nodiscard]] std::string_view to_string(ValueType t);

class Value {
public:
    Value() : data_(std::monostate{}) {}
    Value(std::int64_t v) : data_(v) {}                 // NOLINT(google-explicit-constructor)
    Value(int v) : data_(static_cast<std::int64_t>(v)) {}  // NOLINT
    Value(double v) : data_(v) {}                       // NOLINT
    Value(std::string v) : data_(std::move(v)) {}       // NOLINT
    Value(std::string_view v) : data_(std::string(v)) {}  // NOLINT
    Value(const char* v) : data_(std::string(v)) {}     // NOLINT

    static Value null() { return Value(); }

    [[nodiscard]] ValueType type() const {
        switch (data_.index()) {
            case 0: return ValueType::kNull;
            case 1: return ValueType::kInteger;
            case 2: return ValueType::kReal;
            default: return ValueType::kText;
        }
    }
    [[nodiscard]] bool is_null() const { return type() == ValueType::kNull; }

    [[nodiscard]] std::int64_t as_integer() const;
    [[nodiscard]] double as_real() const;   ///< integers widen
    [[nodiscard]] const std::string& as_text() const;

    /// Render for result sets ('NULL', bare number, or the text).
    [[nodiscard]] std::string to_string() const;

    /// SQL comparison: nullopt when either side is NULL (unknown).
    [[nodiscard]] std::optional<std::strong_ordering> compare(
        const Value& other) const;

    /// Total order for indexes and ORDER BY: NULL sorts first, then by
    /// type, then by value (numeric types compare numerically).  Inline
    /// for the two shapes index B+tree probes compare all day —
    /// INTEGER/INTEGER (numerically, like every numeric pair) and
    /// TEXT/TEXT.
    [[nodiscard]] std::strong_ordering index_order(const Value& other) const {
        if (data_.index() == 1 && other.data_.index() == 1) {
            auto a = static_cast<double>(*std::get_if<1>(&data_));
            auto b = static_cast<double>(*std::get_if<1>(&other.data_));
            if (a < b) return std::strong_ordering::less;
            if (a > b) return std::strong_ordering::greater;
            return std::strong_ordering::equal;
        }
        if (data_.index() == 3 && other.data_.index() == 3)
            return *std::get_if<3>(&data_) <=> *std::get_if<3>(&other.data_);
        return index_order_mixed(other);
    }
    /// index_order(other) < 0, with the same fast paths but no
    /// three-way result to branch on.
    [[nodiscard]] bool index_less(const Value& other) const {
        if (data_.index() == 1 && other.data_.index() == 1)
            return static_cast<double>(*std::get_if<1>(&data_)) <
                   static_cast<double>(*std::get_if<1>(&other.data_));
        if (data_.index() == 3 && other.data_.index() == 3)
            return *std::get_if<3>(&data_) < *std::get_if<3>(&other.data_);
        return index_order_mixed(other) < 0;
    }

    friend bool operator==(const Value& a, const Value& b) {
        return a.index_order(b) == std::strong_ordering::equal;
    }
    friend bool operator<(const Value& a, const Value& b) {
        return a.index_order(b) == std::strong_ordering::less;
    }

    [[nodiscard]] std::size_t hash() const;

private:
    [[nodiscard]] std::strong_ordering index_order_mixed(const Value& other) const;

    std::variant<std::monostate, std::int64_t, double, std::string> data_;
};

struct ValueHash {
    std::size_t operator()(const Value& v) const { return v.hash(); }
};

}  // namespace xr::rdb

#include "verify/lint/lint.hh"

#include <cstdio>

namespace hmg::verify::lint
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
LintReport::toJson() const
{
    std::string out = "{\n  \"findings\": [";
    for (std::size_t i = 0; i < findings_.size(); ++i) {
        const Finding &f = findings_[i];
        out += i ? ",\n    {" : "\n    {";
        out += "\"family\": \"" + jsonEscape(f.family) + "\", ";
        out += "\"check\": \"" + jsonEscape(f.check) + "\", ";
        out += "\"file\": \"" + jsonEscape(f.file) + "\", ";
        out += "\"message\": \"" + jsonEscape(f.message) + "\", ";
        out += "\"counterexample\": [";
        for (std::size_t j = 0; j < f.counterexample.size(); ++j) {
            if (j)
                out += ", ";
            out += "\"" + jsonEscape(f.counterexample[j]) + "\"";
        }
        out += "]}";
    }
    out += findings_.empty() ? "],\n" : "\n  ],\n";
    out += "  \"stats\": {";
    std::size_t i = 0;
    for (const auto &[k, v] : stats_) {
        out += i++ ? ",\n    " : "\n    ";
        out += "\"" + jsonEscape(k) + "\": " + std::to_string(v);
    }
    out += stats_.empty() ? "},\n" : "\n  },\n";
    out += "  \"errors\": " + std::to_string(findings_.size()) + "\n}\n";
    return out;
}

std::string
LintReport::toSarif() const
{
    // Rule table: one reportingDescriptor per distinct family/check.
    std::vector<std::string> rules;
    auto ruleIndex = [&](const Finding &f) {
        const std::string id = f.family + "/" + f.check;
        for (std::size_t i = 0; i < rules.size(); ++i)
            if (rules[i] == id)
                return i;
        rules.push_back(id);
        return rules.size() - 1;
    };
    std::vector<std::size_t> ruleOf;
    ruleOf.reserve(findings_.size());
    for (const Finding &f : findings_)
        ruleOf.push_back(ruleIndex(f));

    std::string out =
        "{\n"
        "  \"version\": \"2.1.0\",\n"
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-"
        "tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
        "  \"runs\": [\n"
        "    {\n"
        "      \"tool\": {\n"
        "        \"driver\": {\n"
        "          \"name\": \"hmgcheck\",\n"
        "          \"informationUri\": "
        "\"https://example.invalid/hmg\",\n"
        "          \"rules\": [";
    for (std::size_t i = 0; i < rules.size(); ++i) {
        out += i ? ",\n            {" : "\n            {";
        out += "\"id\": \"" + jsonEscape(rules[i]) + "\"}";
    }
    out += rules.empty() ? "]\n" : "\n          ]\n";
    out += "        }\n"
           "      },\n"
           "      \"results\": [";
    for (std::size_t i = 0; i < findings_.size(); ++i) {
        const Finding &f = findings_[i];
        out += i ? ",\n        {" : "\n        {";
        out += "\"ruleId\": \"" + jsonEscape(f.family) + "/" +
               jsonEscape(f.check) + "\", ";
        out += "\"ruleIndex\": " + std::to_string(ruleOf[i]) + ", ";
        out += "\"level\": \"error\", ";
        out += "\"message\": {\"text\": \"" + jsonEscape(f.message) +
               "\"}, ";
        out += "\"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": \"" +
               jsonEscape(f.file) + "\"}}}], ";
        out += "\"properties\": {";
        out += "\"family\": \"" + jsonEscape(f.family) + "\", ";
        out += "\"check\": \"" + jsonEscape(f.check) + "\", ";
        out += "\"counterexample\": [";
        for (std::size_t j = 0; j < f.counterexample.size(); ++j) {
            if (j)
                out += ", ";
            out += "\"" + jsonEscape(f.counterexample[j]) + "\"";
        }
        out += "]}}";
    }
    out += findings_.empty() ? "],\n" : "\n      ],\n";
    out += "      \"properties\": {\"stats\": {";
    std::size_t i = 0;
    for (const auto &[k, v] : stats_) {
        if (i++)
            out += ", ";
        out += "\"" + jsonEscape(k) + "\": " + std::to_string(v);
    }
    out += "}}\n"
           "    }\n"
           "  ]\n"
           "}\n";
    return out;
}

std::string
LintReport::toText() const
{
    std::string out;
    for (const Finding &f : findings_) {
        out += f.file + ": error: [" + f.family + "/" + f.check + "] " +
               f.message + "\n";
        for (const std::string &c : f.counterexample)
            out += "    " + c + "\n";
    }
    return out;
}

} // namespace hmg::verify::lint

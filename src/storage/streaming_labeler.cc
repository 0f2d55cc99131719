#include "storage/streaming_labeler.h"

#include <vector>

#include "core/global_state.h"
#include "xml/sax.h"

namespace ruidx {
namespace storage {

namespace {

/// Pass 1: structure only. Every tree node (element, text, comment, PI)
/// becomes a nameless shape element; nothing else is retained.
class ShapeBuilder : public xml::SaxHandlerBase {
 public:
  ShapeBuilder() : doc_(std::make_unique<xml::Document>()) {
    open_.push_back(doc_->document_node());
  }

  Status StartElement(std::string_view,
                      const std::vector<xml::SaxAttribute>&) override {
    xml::Node* shape = doc_->CreateElement("");
    RUIDX_RETURN_NOT_OK(doc_->AppendChild(open_.back(), shape));
    open_.push_back(shape);
    return Status::OK();
  }

  Status EndElement(std::string_view) override {
    open_.pop_back();
    return Status::OK();
  }

  Status Text(std::string_view) override { return Leaf(); }
  Status Comment(std::string_view) override { return Leaf(); }
  Status ProcessingInstruction(std::string_view, std::string_view) override {
    return Leaf();
  }

  std::unique_ptr<xml::Document> Take() { return std::move(doc_); }

 private:
  Status Leaf() {
    return doc_->AppendChild(open_.back(), doc_->CreateElement(""));
  }

  std::unique_ptr<xml::Document> doc_;
  std::vector<xml::Node*> open_;
};

/// Pass 2: lockstep with the shape tree's preorder, emitting records.
class EmittingHandler : public xml::SaxHandlerBase {
 public:
  EmittingHandler(const core::Ruid2Scheme* scheme,
                  std::vector<xml::Node*> preorder, const RecordSink* sink)
      : scheme_(scheme), preorder_(std::move(preorder)), sink_(sink) {}

  Status StartElement(std::string_view name,
                      const std::vector<xml::SaxAttribute>& attributes) override {
    // Attribute values travel in the record's value field as a serialized
    // list; the numbering itself covers tree nodes only (XPath data model).
    std::string value;
    for (const xml::SaxAttribute& attr : attributes) {
      if (!value.empty()) value += " ";
      value += attr.first + "=" + attr.second;
    }
    return Emit(xml::NodeType::kElement, name, value);
  }

  Status Text(std::string_view data) override {
    return Emit(xml::NodeType::kText, "", data);
  }
  Status Comment(std::string_view data) override {
    return Emit(xml::NodeType::kComment, "", data);
  }
  Status ProcessingInstruction(std::string_view target,
                               std::string_view data) override {
    return Emit(xml::NodeType::kProcessingInstruction, target, data);
  }

  Status Finish() const {
    if (cursor_ != preorder_.size()) {
      return Status::Internal("shape/stream desynchronized: " +
                              std::to_string(cursor_) + " of " +
                              std::to_string(preorder_.size()) + " consumed");
    }
    return Status::OK();
  }

 private:
  Status Emit(xml::NodeType type, std::string_view name,
              std::string_view value) {
    if (cursor_ >= preorder_.size()) {
      return Status::Internal("stream produced more nodes than the shape");
    }
    xml::Node* shape = preorder_[cursor_++];
    ElementRecord record;
    record.id = scheme_->label(shape);
    record.parent_id = (shape->parent() == nullptr ||
                        shape->parent()->is_document())
                           ? record.id
                           : scheme_->label(shape->parent());
    record.node_type = static_cast<uint8_t>(type);
    record.name = std::string(name);
    record.value = std::string(value);
    return (*sink_)(record);
  }

  const core::Ruid2Scheme* scheme_;
  std::vector<xml::Node*> preorder_;
  size_t cursor_ = 0;
  const RecordSink* sink_;
};

}  // namespace

Result<StreamingStats> StreamLabel(std::string_view input,
                                   const core::PartitionOptions& partition,
                                   const RecordSink& sink,
                                   const xml::ParseOptions& options) {
  // Pass 1: shape + numbering.
  ShapeBuilder shape_builder;
  RUIDX_RETURN_NOT_OK(xml::SaxParse(input, &shape_builder, options));
  std::unique_ptr<xml::Document> shape = shape_builder.Take();
  if (shape->root() == nullptr) {
    return Status::InvalidArgument("document has no root element");
  }
  core::Ruid2Scheme scheme(partition);
  scheme.Build(shape->root());

  // Pass 2: emit records in document order.
  EmittingHandler emitter(&scheme, xml::CollectPreorder(shape->root()), &sink);
  RUIDX_RETURN_NOT_OK(xml::SaxParse(input, &emitter, options));
  RUIDX_RETURN_NOT_OK(emitter.Finish());

  StreamingStats stats;
  stats.nodes = scheme.label_count();
  stats.areas = scheme.ktable().size();
  stats.kappa = scheme.kappa();
  stats.global_state =
      core::SerializeGlobalState(scheme.kappa(), scheme.ktable());
  return stats;
}

Result<StreamingStats> StreamLabelToStore(std::string_view input,
                                          const core::PartitionOptions& partition,
                                          ElementStore* store,
                                          const xml::ParseOptions& options) {
  return StreamLabel(
      input, partition,
      [store](const ElementRecord& record) { return store->Put(record); },
      options);
}

}  // namespace storage
}  // namespace ruidx

"""Tests for the form tokenizer (DOM + layout → tokens)."""

from repro.html.parser import parse_html
from repro.tokens.tokenizer import FormTokenizer, tokenize_html


def types(tokens):
    return [token.terminal for token in tokens]


class TestControlConversion:
    def test_input_types(self):
        tokens = tokenize_html(
            "<form>"
            "<input type=text name=a>"
            "<input type=password name=b>"
            "<input type=radio name=c>"
            "<input type=checkbox name=d>"
            "<input type=submit>"
            "<input type=reset>"
            "<input type=button>"
            "<input type=file name=f>"
            "</form>"
        )
        assert sorted(types(tokens)) == sorted([
            "textbox", "password", "radiobutton", "checkbox",
            "submitbutton", "resetbutton", "pushbutton", "filebox",
        ])

    def test_typeless_input_is_textbox(self):
        (token,) = tokenize_html("<form><input name=q></form>")
        assert token.terminal == "textbox"

    def test_unknown_type_falls_back_to_textbox(self):
        (token,) = tokenize_html("<form><input type=datetime name=q></form>")
        assert token.terminal == "textbox"

    def test_hidden_field_not_tokenized(self):
        tokens = tokenize_html(
            "<form><input type=hidden name=h><input name=q></form>"
        )
        assert types(tokens) == ["textbox"]

    def test_select_options_captured(self):
        (token,) = tokenize_html(
            "<form><select name=s>"
            "<option value='v1'>One</option><option selected>Two</option>"
            "</select></form>"
        )
        assert token.terminal == "selectlist"
        assert [o.label for o in token.options] == ["One", "Two"]
        assert token.options[0].value == "v1"
        assert token.options[1].value == "Two"
        assert token.options[1].selected

    def test_listbox_when_size_gt_one(self):
        (token,) = tokenize_html(
            "<form><select name=s size=4><option>a</option></select></form>"
        )
        assert token.terminal == "listbox"

    def test_multiple_flag(self):
        (token,) = tokenize_html(
            "<form><select name=s multiple><option>a</option></select></form>"
        )
        assert token.attrs["multiple"]

    def test_textarea(self):
        (token,) = tokenize_html("<form><textarea name=t></textarea></form>")
        assert token.terminal == "textarea"

    def test_button_element(self):
        (token,) = tokenize_html("<form><button>Find it</button></form>")
        assert token.terminal == "submitbutton"
        assert token.attrs["value"] == "Find it"

    def test_checkbox_checked_attribute(self):
        (token,) = tokenize_html(
            "<form><input type=checkbox name=c checked></form>"
        )
        assert token.attrs["checked"] is True


class TestTextTokens:
    def test_simple_label(self):
        tokens = tokenize_html("<form>Author: <input name=a></form>")
        text = next(t for t in tokens if t.terminal == "text")
        assert text.sval == "Author:"

    def test_bold_and_plain_merge(self):
        tokens = tokenize_html("<form><b>Title</b>: <input name=t></form>")
        text = next(t for t in tokens if t.terminal == "text")
        assert text.sval == "Title:"
        assert text.attrs["bold"]

    def test_cells_stay_separate(self):
        tokens = tokenize_html(
            "<form><table><tr><td>Left</td><td>Right</td></tr></table>"
            "<input name=q></form>"
        )
        texts = sorted(t.sval for t in tokens if t.terminal == "text")
        assert texts == ["Left", "Right"]

    def test_lines_stay_separate(self):
        tokens = tokenize_html("<form>one<br>two<input name=q></form>")
        texts = sorted(t.sval for t in tokens if t.terminal == "text")
        assert texts == ["one", "two"]

    def test_whitespace_only_dropped(self):
        tokens = tokenize_html("<form>   \n  <input name=q></form>")
        assert types(tokens) == ["textbox"]


class TestScoping:
    TWO_FORMS = (
        "<form id=f1>First <input name=a></form>"
        "<form id=f2>Second <input name=b></form>"
    )

    def test_first_form_only(self):
        document = parse_html(self.TWO_FORMS)
        tokenizer = FormTokenizer(document)
        tokens = tokenizer.tokenize(document.forms[0])
        names = [t.name for t in tokens if t.terminal == "textbox"]
        assert names == ["a"]

    def test_second_form(self):
        document = parse_html(self.TWO_FORMS)
        tokenizer = FormTokenizer(document)
        tokens = tokenizer.tokenize(document.forms[1])
        names = [t.name for t in tokens if t.terminal == "textbox"]
        assert names == ["b"]

    def test_whole_page_when_no_form(self):
        tokens = tokenize_html("No form here <input name=x>")
        assert "textbox" in types(tokens)

    def test_nearby_outside_label_included(self):
        tokens = tokenize_html(
            "Quick search: <form><input name=q></form>"
        )
        texts = [t.sval for t in tokens if t.terminal == "text"]
        assert "Quick search:" in texts

    def test_distant_page_text_excluded(self):
        tokens = tokenize_html(
            "<p>Far away header</p>" + "<br>" * 20 +
            "<form>Label <input name=q></form>"
        )
        texts = [t.sval for t in tokens if t.terminal == "text"]
        assert "Far away header" not in texts


    NESTED_FORMS = (
        "Search the shop: <form id=f1><b>Title</b> <input name=a>"
        "<div>Author <span><input name=b> <i>exact</i></span></div></form>"
        "<p>between the forms</p>"
        "<form id=f2><table><tr><td>Price</td><td><select name=p>"
        "<option>low</select></td></tr></table> <a href=/h>help</a></form>"
        "<form id=f3></form> trailing text"
    )

    def test_scope_matches_the_ancestor_walk(self):
        """A control is tokenized, and a fragment is kept whatever its
        distance, exactly when the form is its node or one of the node's
        ancestors."""

        def inside(node, form):
            return node is form or any(
                ancestor is form for ancestor in node.ancestors()
            )

        document = parse_html(self.NESTED_FORMS)
        tokenizer = FormTokenizer(document)
        layout = tokenizer.layout
        for form in document.forms:
            tokens = tokenizer.tokenize(form)
            controls = [
                control.box for control in layout.controls
                if inside(control.element, form)
            ]
            texts = [
                fragment.text for fragment in layout.fragments
                if fragment.text.strip()
                and inside(fragment.node.parent, form)
            ]
            assert sorted(
                (box.top, box.left) for box in controls
            ) == sorted(
                (token.bbox.top, token.bbox.left)
                for token in tokens if token.terminal != "text"
            )
            token_text = " ".join(
                token.sval for token in tokens if token.terminal == "text"
            )
            assert all(text in token_text for text in texts)


class TestOrdering:
    def test_reading_order_and_dense_ids(self):
        tokens = tokenize_html(
            "<form><table>"
            "<tr><td>A</td><td><input name=a></td></tr>"
            "<tr><td>B</td><td><input name=b></td></tr>"
            "</table></form>"
        )
        assert [t.id for t in tokens] == list(range(len(tokens)))
        tops = [t.bbox.top for t in tokens]
        assert tops == sorted(tops)

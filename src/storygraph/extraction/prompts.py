"""Prompt catalog for the two-step extraction conversation.

The texts below are frozen: downstream runs are only comparable when every
experiment renders byte-identical instructions.  Bump PROMPT_CATALOG_VERSION
whenever any of them changes.  Trailing whitespace and the odd stray quote
are intentional and must survive reformatting.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

PROMPT_CATALOG_VERSION = "1.0"

MAIN_SYSTEM_PROMPT = (
    """
Knowledge Graph Constructor Instructions \n
## 1. Overview \n
You are a specialized requirements engineer, who understands about scrum framework. Your task is to analyze and extract nodes and relationships from user stories to build a knowledge graph.\x20
You have to extract as much information as possible without sacrificing accuracy. Do not add any information that is not explicitly in the mentioned user story. \n
## 2. Nodes \n
Nodes represent concepts in a user story. Given a user story, you need to extract: \n
- Persona: there is only one persona node per user story, introduced as 'As a *persona*,'. \n
- Actions: are all verbs in the user story that describe what the persona desires to do (e.g. move on, access, have). Extract the verb only, without modifiers.\n
- Entities: are nouns and each noun must be extracted as a separate entity, even if they seem related or grouped. Include any modifiers that clarify the entity (e.g. library database, domain).  \n
**Consistency**: Ensure you use available types for node labels, you necessarily extract at least 4 nodes: persona, action, entity.\n
**Node IDs**: Never utilize integers as node IDs. Node IDs should be names or human-readable identifiers extracted as found in the user story.\n
**Extract all actions and entities**: capture every action and its corresponding entity.\n
**Separate verbs**: consider each verb as a distinct action and its objects as related entities.\n
## 3. Relationships\n
Relationships represent connections between nodes. The only possible relationships are:\n
- Persona->main action (triggers). \n
- Action->entity (targets). \n
No other relationships are allowed except for the ones above, make sure to create all the possible relationships. \n
## 4. Coreference Resolution \n
**Maintain Entity Consistency**: When extracting entities, it's vital to ensure consistency.\n
If an entity, such as "John Doe", is mentioned multiple times in the text but is referred to by different names or pronouns (e.g., "Joe", "he"), always use the most complete identifier for that entity throughout the knowledge graph. In this example, use "John Doe" as the entity ID.\n'
Remember, the knowledge graph should be coherent and easily understandable, so maintaining consistency in entity references is crucial.\n
## 5. Strict Compliance\n
Adhere to the rules strictly. Non-compliance will result in termination.
## 6. Example \n
'As a user, I want to sync my data so that I can access my information from anywhere.' \n
Extracted Nodes: \n
Persona: ['user'] \n
Action: ['sync', 'access'] \n
Entity: ['data', 'current information', 'anywhere'] \n
Relationships: \n
TRIGGERS: [['user', 'sync']] \n
TARGETS: [['sync', 'data'], ['access', 'current information']] \n"""
)

BENEFIT_SYSTEM_PROMPT = (
    """
    You are a specialized requirements engineer, who understands about scrum framework.\n
    You have to extract as much information as possible without sacrificing accuracy.\x20
    Do not add any information that is not explicitly in the mentioned user story.\n
    ## Benefit\n
    Extract the benefit sentence of the user story, if it exists.
    The benefit sentence is a sentence typically introduced as 'so that *benefit*', 'in order to *benefit*'.
    ## Examples\n
    if benefit sentence exists: \n\x20\x20
    input: 'As a user, I want to sync my data, so that I can access my information from anywhere.'\n
    answer: Node(id='I can access my information from anywhere', type='Benefit')\n
    if benefit sentence does not exist: \n
    input: 'As a customer, I want to pay by cash.' \n
    answer: '' \n
    """
)

HUMAN_TIP = (
    "Tip: Make sure to answer in the correct format and do "
    "not include any explanations. "
    "Use the given format to extract information from the "
    "following input: {input}"
)

RECORD_FORMAT_INSTRUCTIONS = (
    "Respond only with JSON: a list of objects, each carrying the keys "
    '"text", "head", "head_type", "relation", "tail" and "tail_type". '
    '"head" and "tail" are node IDs copied from the user story, '
    '"head_type" and "tail_type" name the node types, and "relation" is '
    "either TRIGGERS or TARGETS. "
    "Below are examples of user stories and their extracted nodes and "
    "relationships in that format:\n"
)

INPUT_PLACEHOLDER = "{input}"


def render_prompt(
    segments: tuple[tuple[str, str], ...], story_text: str
) -> list[tuple[str, str]]:
    """Substitute the story into the conversation's one input placeholder.

    Plain substring replacement, so braces inside the story text are inert.
    """
    if not story_text:
        raise ValueError("story_text must be non-empty")
    return [(role, text.replace(INPUT_PLACEHOLDER, story_text)) for role, text in segments]


def few_shot_records() -> list[dict[str, str]]:
    """The five bundled head-relation-tail examples, keys in file order."""
    data = (
        resources.files(__package__)
        .joinpath("few_shot_records.json")
        .read_text("utf-8")
    )
    return json.loads(data)


@functools.cache
def main_prompt(supports_function_calls: bool = True) -> tuple[tuple[str, str], ...]:
    """The persona/action/entity conversation as (role, text) segments.

    Without function-call support the format instructions and the five
    examples are placed ahead of the main instructions so the model sees
    the expected record shape first.  Built once per process.
    """
    if supports_function_calls:
        system_text = MAIN_SYSTEM_PROMPT
    else:
        records = json.dumps(few_shot_records(), indent=2, ensure_ascii=False)
        system_text = RECORD_FORMAT_INSTRUCTIONS + records + "\n" + MAIN_SYSTEM_PROMPT
    return (("system", system_text), ("human", HUMAN_TIP))


@functools.cache
def benefit_prompt() -> tuple[tuple[str, str], ...]:
    return (("system", BENEFIT_SYSTEM_PROMPT), ("human", HUMAN_TIP))

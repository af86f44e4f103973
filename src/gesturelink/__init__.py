"""gesturelink: hand-landmark gesture encoding and LLM-agent grounding.

Pipeline: parse a 21-point landmark stream, detect gesture windows at
the chest-level trigger, encode the two-channel gesture state matrix,
describe it with an LLM, then ground the gesture to one interface
function through an inference/context agent dialogue. A scripted
transport backend makes every stage replayable offline.
"""

from .agents import (
    Conclusion,
    DialogueTranscript,
    PoseDescription,
    SessionConfig,
    ground_matrix,
    run_inference_session,
)
from .context import ContextLibrary, ContextType, FunctionEntry, add_context_type
from .encoder import (
    GestureStateMatrix,
    GestureWindow,
    SegmentationConfig,
    build_state_matrix,
    detect_gesture_window,
    encode_stream,
    sample_window,
    serialize_matrix,
)
from .evaluation import (
    ContextSetting,
    Metrics,
    PipelineHandles,
    TaskRecord,
    random_guess_baseline,
    run_protocol,
    run_setting,
    topk_rank,
)
from .landmarks import (
    HandLandmarkFrame,
    Handedness,
    LandmarkStream,
    landmark_index,
    parse_landmark_stream,
    serialize_landmark_stream,
)
from .prompts import AgentPromptSet, load_prompt_set
from .rules import (
    PalmOrientation,
    RuleThresholds,
    ThreeWay,
    ThumbDirection,
    contact,
    encode_pose_vector,
    flexion,
    hand_center,
    palm_orientation,
    proximity,
    thumb_pointing,
)
from .transport import (
    BackendConfig,
    ChatMessage,
    CompletionRequest,
    LiveBackend,
    RetryingBackend,
    RetryPolicy,
    ScriptedBackend,
    UsageRecord,
)
from .tuning import (
    Assessment,
    GridSpec,
    GroundTruthLabel,
    LossWeights,
    MeasuredSample,
    assess,
    average_loss,
    grid_search,
)

__version__ = "0.1.0"
